package core

import (
	"context"
	"net/url"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ranking"
	"repro/internal/wdbhttp"
)

// TestFilterBoundSurvivesNormalization: the engine works in normalised
// coordinates, and denormalising a user's filter bound can move it one
// ulp inward, which would exclude a tuple lying exactly on the bound
// from every web query. A region edge that is the user's own bound must
// reach the web database as the user's raw value.
func TestFilterBoundSurvivesNormalization(t *testing.T) {
	cat := datagen.BlueNile(4000, 7)
	schema := cat.Rel.Schema()
	for _, tc := range []struct {
		name, rank, filter string
		first              int64 // required first tuple; 0 = oracle only
	}{
		{
			// A bound on a carat value the round trip moves: tuple 3354
			// sits exactly on max.carat and ranks first.
			name:   "drifting bounds",
			rank:   "-carat - 0.5*depth",
			filter: "min.carat=0.35000000000000003&max.carat=0.47000000000000003&min.depth=60.300000000000004",
			first:  3354,
		},
		{name: "typed bound", rank: "carat", filter: "min.carat=0.66"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			form, err := url.ParseQuery(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := wdbhttp.ParseFilterForm(schema, form)
			if err != nil {
				t.Fatal(err)
			}
			db := newDB(t, cat, 50)
			for _, algo := range allAlgorithms {
				q := Query{Pred: pred, Rank: ranking.MustParse(tc.rank)}
				assertMatchesBruteForce(t, cat, db, Options{Algorithm: algo}, q, 10)
				if tc.first == 0 {
					continue
				}
				// assertMatchesBruteForce drained the stream; a fresh one
				// checks the identity of the first answer.
				r, err := New(db, Options{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := r.Rerank(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fresh.NextN(context.Background(), 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || got[0].ID != tc.first {
					t.Fatalf("%s: first answer %v, want tuple %d", algo, got, tc.first)
				}
			}
		})
	}
}
