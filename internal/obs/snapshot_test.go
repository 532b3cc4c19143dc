package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestSnapshotMergeEqualsUnion is the merge-correctness property test:
// merging per-replica snapshots must equal a single collector that
// observed the union stream — same counts, same sums, same cumulative
// buckets, +Inf always equal to _count.
func TestSnapshotMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const replicas = 5

	cols := make([]*Collector, replicas)
	for i := range cols {
		cols[i] = quietCollector(CollectorConfig{Buffer: 8})
	}
	union := quietCollector(CollectorConfig{Buffer: 8})

	stages := []Stage{StagePoolLookup, StageWebQuery, StagePeerForward, StageRerank}
	outcomes := []Outcome{OutcomeOK, OutcomeHit, OutcomeMiss, OutcomeError}
	// Observations go straight into the collector's histograms and
	// counters with seed-derived durations, so the replica and the union
	// collector fold byte-identical streams (driving real traces through
	// Done would observe wall-clock elapsed times, which differ run to
	// run — the merge property needs identical inputs, not identical
	// clocks).
	observe := func(c *Collector, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for j := 0; j < 4; j++ {
			s := stages[r.Intn(len(stages))]
			o := outcomes[r.Intn(len(outcomes))]
			c.stage[s][o].Observe(time.Duration(1 + r.Int63n(int64(3*time.Second))))
		}
		c.request[Path(r.Intn(int(numPaths)))].Observe(time.Duration(1 + r.Int63n(int64(time.Second))))
		c.total.Add(1)
		c.webQueries.Add(uint64(r.Intn(3)))
		if r.Intn(10) == 0 {
			c.slowTotal.Add(1)
		}
	}

	for i := 0; i < 400; i++ {
		seed := rng.Int63()
		observe(cols[i%replicas], seed)
		observe(union, seed)
	}

	snaps := make([]*Snapshot, replicas)
	for i, c := range cols {
		snaps[i] = c.Snapshot("r" + string(rune('a'+i)))
	}
	merged := MergeSnapshots(snaps...)
	want := union.Snapshot("union")

	if merged.Traces != want.Traces || merged.Slow != want.Slow || merged.WebQueries != want.WebQueries {
		t.Fatalf("merged counters (%d,%d,%d) != union (%d,%d,%d)",
			merged.Traces, merged.Slow, merged.WebQueries, want.Traces, want.Slow, want.WebQueries)
	}
	compareHistMaps(t, "stage", merged.Stage, want.Stage)
	compareHistMaps(t, "request", merged.Request, want.Request)
}

func compareHistMaps(t *testing.T, what string, got, want map[string]*HistData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s families: got %d keys, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s[%s] missing from merge", what, k)
		}
		if g.Sum != w.Sum {
			t.Errorf("%s[%s] sum: got %d want %d", what, k, g.Sum, w.Sum)
		}
		if len(g.Counts) != len(w.Counts) {
			t.Fatalf("%s[%s] bucket count: got %d want %d", what, k, len(g.Counts), len(w.Counts))
		}
		var cumG, cumW uint64
		for i := range w.Counts {
			if g.Counts[i] != w.Counts[i] {
				t.Errorf("%s[%s] bucket %d: got %d want %d", what, k, i, g.Counts[i], w.Counts[i])
			}
			cumG += g.Counts[i]
			cumW += w.Counts[i]
		}
		if cumG != cumW || cumG != g.Count() {
			t.Errorf("%s[%s] +Inf cumulative %d != count %d (want %d)", what, k, cumG, g.Count(), cumW)
		}
		if g.Quantile(0.5) != w.Quantile(0.5) || g.Quantile(0.99) != w.Quantile(0.99) {
			t.Errorf("%s[%s] quantiles diverge: p50 %v/%v p99 %v/%v",
				what, k, g.Quantile(0.5), w.Quantile(0.5), g.Quantile(0.99), w.Quantile(0.99))
		}
	}
}

// TestSnapshotMergeMismatchedBuckets checks that a corrupt peer snapshot
// is rejected without poisoning the merged data.
func TestSnapshotMergeMismatchedBuckets(t *testing.T) {
	good := &HistData{Counts: make([]uint64, NumBuckets), Sum: 10}
	good.Counts[3] = 2
	bad := &HistData{Counts: make([]uint64, 7), Sum: 99}
	a := &Snapshot{Request: map[string]*HistData{"web": good.Clone()}}
	b := &Snapshot{Request: map[string]*HistData{"web": bad}}
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched bucket counts did not error")
	}
	if got := a.Request["web"].Count(); got != 2 {
		t.Fatalf("mismatched merge mutated destination: count %d", got)
	}
}

// TestSnapshotWriteProm checks the fleet writer keeps the exposition
// invariants: cumulative buckets ending at +Inf == _count.
func TestSnapshotWriteProm(t *testing.T) {
	h := &HistData{Counts: make([]uint64, NumBuckets), Sum: 3e9}
	h.Counts[2], h.Counts[30] = 4, 1
	out := promText("qr2_fleet_request_latency_seconds", h, "path", "web")
	if !strings.Contains(out, `qr2_fleet_request_latency_seconds_bucket{path="web",le="+Inf"} 5`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `qr2_fleet_request_latency_seconds_count{path="web"} 5`) {
		t.Fatalf("count != cumulative:\n%s", out)
	}
}

// TestSnapshotMergeRejectsUnknownKeys: a peer snapshot cannot add
// series. Junk and hostile stage/path keys, and a new histogram with the
// wrong bucket layout, are dropped with an error; the known keys riding
// alongside still merge.
func TestSnapshotMergeRejectsUnknownKeys(t *testing.T) {
	hist := func(n uint64) *HistData {
		h := &HistData{Counts: make([]uint64, NumBuckets), Sum: n}
		h.Counts[5] = n
		return h
	}
	const stageKey = "web_query/ok"
	s := &Snapshot{
		Stage:   map[string]*HistData{stageKey: hist(1)},
		Request: map[string]*HistData{"web": hist(1)},
	}
	peer := &Snapshot{
		Stage:   map[string]*HistData{stageKey: hist(2)},
		Request: map[string]*HistData{"web": hist(2), "pool-hit": hist(3)},
	}
	for i := 0; i < 10000; i++ {
		peer.Stage[fmt.Sprintf("junk%d/ok", i)] = hist(1)
	}
	hostile := "web\"} 1\nqr2_evil_total 1\n#"
	peer.Stage[hostile] = hist(1)
	peer.Request[hostile] = hist(1)
	peer.Request["web/ok"] = hist(1)
	peer.Request["dense"] = &HistData{Counts: make([]uint64, 7)} // known key, wrong layout

	if err := s.Merge(peer); err == nil {
		t.Fatal("merging unknown keys did not error")
	}
	if len(s.Stage) != 1 || len(s.Request) != 2 {
		t.Fatalf("unknown keys survived the merge: %d stage, %d request keys", len(s.Stage), len(s.Request))
	}
	if got := s.Stage[stageKey].Count(); got != 3 {
		t.Fatalf("known stage key merged to count %d, want 3", got)
	}
	if got, want := s.Request["web"].Count(), uint64(3); got != want {
		t.Fatalf("known path key merged to count %d, want %d", got, want)
	}
	if got := s.Request["pool-hit"].Count(); got != 3 {
		t.Fatalf("new known path key merged to count %d, want 3", got)
	}
}
