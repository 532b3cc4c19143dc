package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/relation"
)

// predsOwnedBy collects k distinct window predicates all owned by one
// replica — distinct, so neither the singleflight coalescer nor the
// cache collapses concurrent lookups into one.
func predsOwnedBy(t testing.TB, reps []*replica, want string, k int) []relation.Predicate {
	t.Helper()
	name := reps[0].db.Name()
	out := make([]relation.Predicate, 0, k)
	for i := 0; i < 5000 && len(out) < k; i++ {
		p := window(float64(i * 7))
		if owner, ok := reps[0].node.owner(name, qcache.KeyOf(p)); ok && owner == want {
			out = append(out, p)
		}
	}
	if len(out) < k {
		t.Fatalf("found only %d/%d predicates owned by %s", len(out), k, want)
	}
	return out
}

func transportOf(t testing.TB, r *replica) *TransportStats {
	t.Helper()
	ts := r.node.Stats().Transport
	if ts == nil {
		t.Fatal("node has no transport stats")
	}
	return ts
}

// TestV2NegotiationAndConnReuse: the first forward upgrades a connection
// on the peer's ordinary HTTP listener; later forwards reuse the pooled
// connections instead of dialing per request.
func TestV2NegotiationAndConnReuse(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)

	// Warm: every answer ends up resident at owner b.
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()
	// Serve the same set repeatedly: all forward hits over pooled conns.
	for round := 0; round < 3; round++ {
		for _, p := range preds {
			if _, err := a.db.Search(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := transportOf(t, a)
	if st.V2Dials == 0 || st.V2Dials > peerConns {
		t.Fatalf("%d forwards dialed %d times, want 1..%d (pooled reuse)", 4*len(preds), st.V2Dials, peerConns)
	}
	if st.FramesSent == 0 || st.FramesRecv == 0 {
		t.Fatalf("no frames moved: %+v", st)
	}
	if st.V2DialFails != 0 {
		t.Fatalf("healthy peer failed %d dials", st.V2DialFails)
	}
	if conns := liveConns(st, b.id); conns == 0 {
		t.Fatalf("no live connection to peer %s: %+v", b.id, st)
	}
	if ns := a.node.Stats(); ns.ForwardHits < int64(3*len(preds)) {
		t.Fatalf("expected %d forward hits: %+v", 3*len(preds), ns)
	}
}

// TestInFlightFailoverNoDroppedCallers: persistent connections are
// severed over and over while concurrent forwards are in flight. Every
// caller whose frame dies mid-connection must redial and re-send within
// its own attempt: zero search errors, zero extra web queries, zero
// fallback-local serves — the owner accepts new connections the whole
// time, only its established ones are being murdered.
func TestInFlightFailoverNoDroppedCallers(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()
	warmQueries := totalQueries(reps)

	var wg sync.WaitGroup
	var searchErrs atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g+i)%len(preds)]); err != nil {
					searchErrs.Add(1)
					t.Errorf("dropped caller: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		b.node.CloseV2Conns()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if searchErrs.Load() != 0 {
		t.Fatalf("%d searches failed during connection churn", searchErrs.Load())
	}
	if got := totalQueries(reps); got != warmQueries {
		t.Fatalf("connection churn paid %d web queries", got-warmQueries)
	}
	if st := a.node.Stats(); st.Fallbacks != 0 {
		t.Fatalf("connection churn caused %d fallback-local serves: %+v", st.Fallbacks, st)
	}
}

// TestPeerRestartRenegotiates: a full peer death (HTTP down + conns
// severed) degrades cleanly under concurrent load, and after the revive
// probe the transport dials the peer again rather than staying parked
// on the dial backoff it formed while the peer answered 503.
func TestPeerRestartRenegotiates(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	all := predsOwnedBy(t, reps, b.id, 6)
	// The last two predicates are reserved for the deterministic final
	// sequence: they must not be cached at a as outage fallout, or those
	// searches would be served locally and never touch the transport.
	preds, indict, probe := all[:4], all[4], all[5]
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g+i)%len(preds)]); err != nil {
					t.Errorf("search failed during restart: %v", err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		b.kill()
		time.Sleep(2 * time.Millisecond)
		b.down.Store(false)
		a.node.CheckNow(ctx)
	}
	close(stop)
	wg.Wait()

	// Deterministic final pass on fresh predicates (anything from preds
	// is a's local stray by now and would never touch the transport):
	// kill → a forward passively indicts b (served locally, so it cannot
	// fail) → the revive probe clears the dial backoff and reconnects →
	// the next forward rides a live connection instead of staying parked
	// on the outage-era backoff.
	b.kill()
	if _, err := a.db.Search(ctx, indict); err != nil {
		t.Fatalf("search during outage: %v", err)
	}
	if a.node.health.alive(b.id) {
		t.Fatal("outage forward did not indict b")
	}
	b.down.Store(false)
	a.node.CheckNow(ctx)
	if _, err := a.db.Search(ctx, probe); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	st := transportOf(t, a)
	if conns := liveConns(st, b.id); conns == 0 {
		t.Fatalf("after revive no live connection to peer %s: %+v", b.id, st)
	}
}

// liveConns reports the live pooled connections to one peer.
func liveConns(st *TransportStats, id string) int {
	for _, ps := range st.Peers {
		if ps.ID == id {
			return ps.Conns
		}
	}
	return 0
}

// setBatchWindow makes every replica's batch flushers linger, so tests
// that need wide batches get them deterministically.
func setBatchWindow(reps []*replica, d time.Duration) {
	for _, r := range reps {
		r.node.transport.batchWindow = d
	}
}

// TestBatchCoalescing: concurrent forwards to one owner leave in shared
// opBatchGet frames instead of a frame per lookup, and every caller
// still gets its own correct answer.
func TestBatchCoalescing(t *testing.T) {
	reps := newCluster(t, 2)
	setBatchWindow(reps, 3*time.Millisecond) // force wide batches: determinism over latency
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 16)
	want := make([]int, len(preds))
	for i, p := range preds {
		res, err := a.db.Search(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Tuples)
	}
	a.node.Quiesce()
	warmQueries := totalQueries(reps)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, p := range preds {
		wg.Add(1)
		go func(i int, p relation.Predicate) {
			defer wg.Done()
			<-start
			res, err := a.db.Search(ctx, p)
			if err != nil {
				t.Errorf("batched search %d: %v", i, err)
				return
			}
			if len(res.Tuples) != want[i] {
				t.Errorf("batched search %d: %d tuples, want %d", i, len(res.Tuples), want[i])
			}
		}(i, p)
	}
	close(start)
	wg.Wait()

	if got := totalQueries(reps); got != warmQueries {
		t.Fatalf("batched hits paid %d web queries", got-warmQueries)
	}
	st := transportOf(t, a)
	if st.BatchesSent == 0 || st.BatchedGets < 2 {
		t.Fatalf("no coalescing: %+v", st)
	}
	var flushes int64
	for _, c := range st.BatchOccupancy {
		flushes += c
	}
	if flushes == 0 {
		t.Fatalf("occupancy histogram empty: %+v", st)
	}
	// The histogram's exact sum counts every lookup that left in a
	// frame: each forward (warm-up misses and batched hits alike) is one.
	if sum, fwd := st.OccupancySum(), a.node.Stats().Forwards; sum != fwd {
		t.Fatalf("occupancy sum %d != %d forwarded lookups (%+v)", sum, fwd, st)
	}
}

// TestBatchCoalescingRace hammers the batcher from many goroutines while
// the owner's conns are concurrently severed — the coalescer must neither
// deadlock, nor double-deliver, nor drop a caller (run under -race).
func TestBatchCoalescingRace(t *testing.T) {
	reps := newCluster(t, 2)
	setBatchWindow(reps, 200*time.Microsecond)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g*3+i)%len(preds)]); err != nil {
					t.Errorf("caller dropped under churn: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 15; i++ {
		b.node.CloseV2Conns()
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if st := a.node.Stats(); st.Fallbacks != 0 {
		t.Fatalf("transport churn caused fallback-local serves: %+v", st)
	}
}
