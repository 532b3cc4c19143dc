package main

import (
	"context"
	"testing"

	"repro/internal/core"
)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	o, err := newOracle(context.Background(), catalogs())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOracleSelfTest: replaced, dropped, non-matching, repeated and
// score-reordered rows fail the check; a permutation inside a tie group
// passes and counts as a divergence.
func TestOracleSelfTest(t *testing.T) {
	if err := testOracle(t).selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleCheckGroupsCursors runs check over two interleaved cursors of
// one form, pages out of order, and a corrupted third cursor.
func TestOracleCheckGroupsCursors(t *testing.T) {
	o := testOracle(t)
	forms := parseForms(hotForms[:1])
	b, err := o.bind(forms[0])
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceTop(b.rel, b.pred, b.sc, 2*b.k)
	page := func(cursor, n int32, from int) pageRecord {
		ids := make([]int64, b.k)
		for i := range ids {
			ids[i] = want[from+i].ID
		}
		return pageRecord{form: 0, cursor: cursor, page: n, valuesOK: true, ids: ids}
	}
	bad := page(3, 1, 0)
	bad.valuesOK = false
	pages := []pageRecord{page(1, 2, b.k), page(2, 1, 0), page(1, 1, 0), bad}
	v, err := o.check(forms, pages)
	if err != nil {
		t.Fatal(err)
	}
	if v.pages != 4 || v.mismatches != 1 {
		t.Fatalf("verdict %+v, want 4 pages with 1 mismatch (the page whose values differ)", v)
	}
}

// TestBoundaryProbeRuns: the probe finds a drifting value for most
// attributes and reports misses within its probe count.
func TestBoundaryProbeRuns(t *testing.T) {
	misses, probes, err := testOracle(t).boundaryMisses(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if probes < 6 || misses < 0 || misses > probes {
		t.Fatalf("%d misses of %d probes", misses, probes)
	}
}
