package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Typed client RPCs over the peer transport. The transport has already
// mapped every failure to the error model by the time a call returns:
// a peerDownError indicts the peer (failed dial, response timeout,
// 5xx-family opErr, or a connection that kept dying until the RPC
// deadline), while a 4xx-family opErr and a stale-epoch put rejection
// are request-scoped and final. The calls below add the one remaining
// peer-indicting case: a response that does not decode.

// peerOf returns the transport state for an RPC target. Every ring
// member but self has one, so a miss is a caller bug, not a peer fault.
func (n *Node) peerOf(id string) (*peerTransport, error) {
	if pt := n.transport.peer(id); pt != nil {
		return pt, nil
	}
	return nil, fmt.Errorf("cluster: %q is not a peer of %s", id, n.self)
}

// v2Get performs one forwarded residency lookup, going through the
// owner's batcher so a burst of foreign lookups to the same peer
// coalesces into one frame.
func (n *Node) v2Get(ctx context.Context, owner, ns string, schema *relation.Schema, p relation.Predicate, seq uint64) (hidden.Result, bool, error) {
	pt, err := n.peerOf(owner)
	if err != nil {
		return hidden.Result{}, false, err
	}
	tr := obs.FromContext(ctx)
	eb, _ := entryBufs.Get().(*[]byte)
	if eb == nil {
		eb = new([]byte)
		*eb = make([]byte, 0, 192)
	}
	w := wireWriter{buf: (*eb)[:0]}
	appendGetEntry(&w, ns, seq, n.scopeAt(ns, seq), tr != nil, p)
	var began time.Time
	if tr != nil {
		began = time.Now()
	}
	r, err := pt.get(ctx, w.buf)
	if err != nil {
		// The entry may still sit in the batch queue (timeout, cancelled
		// context), so its buffer must not be recycled.
		return hidden.Result{}, false, err
	}
	// A response proves the frame was written; the entry bytes are dead
	// and the buffer can be recycled.
	*eb = w.buf[:0]
	entryBufs.Put(eb)
	rd := &wireReader{buf: r.payload}
	resp := decodeGetResponse(rd, schema)
	if derr := rd.finish(); derr != nil {
		return hidden.Result{}, false, &peerDownError{err: fmt.Errorf("cluster: decode get from %s: %w", owner, derr)}
	}
	tr.Stitch(resp.trace, began)
	n.observeScoped(ns, resp.eseq, resp.scope)
	if !resp.found {
		return hidden.Result{}, false, nil
	}
	if resp.eseq > 0 && n.seqOf(ns) > resp.eseq {
		// The owner answered under an older epoch than this replica now
		// serves under (a bump landed since the request went out, or the
		// owner has not caught up): its residency may predate the change.
		// Treat it as a miss; the owner converges via our seq or gossip.
		return hidden.Result{}, false, nil
	}
	return resp.resultOf(), true, nil
}

// v2Put pushes one answer. The response's status carries the admission
// verdict: stale-epoch and refused map to plain, final errors.
func (n *Node) v2Put(ctx context.Context, owner, ns string, schema *relation.Schema, p relation.Predicate, res hidden.Result, seq uint64) error {
	pt, err := n.peerOf(owner)
	if err != nil {
		return err
	}
	tr := obs.FromContext(ctx)
	began := time.Now()
	r, err := pt.roundTrip(ctx, opPut, func(w *wireWriter) {
		w.str(ns)
		w.uvarint(seq)
		// The scope travels only while seq is still the live epoch: it
		// describes the transition into exactly that seq, and tagging an
		// older seq with a newer transition's rect would let a receiver
		// partial-wipe where a full wipe is owed.
		appendScope(w, n.scopeAt(ns, seq))
		w.bool(tr != nil)
		w.bool(res.Overflow)
		appendPredicate(w, p)
		appendTuples(w, res.Tuples, schema.Len())
	})
	if err != nil {
		return err
	}
	if r.op != opPutResp {
		return &peerDownError{err: fmt.Errorf("cluster: put to %s answered op %d", owner, r.op)}
	}
	rd := &wireReader{buf: r.payload}
	status := rd.u8()
	msg := rd.str()
	st := decodeSubtree(rd)
	if derr := rd.finish(); derr != nil {
		return &peerDownError{err: fmt.Errorf("cluster: decode put from %s: %w", owner, derr)}
	}
	tr.Stitch(st, began)
	switch status {
	case putStatusOK:
		return nil
	case putStatusStale:
		return fmt.Errorf("cluster: %s rejected stale-epoch put: %s", owner, msg)
	default:
		return fmt.Errorf("cluster: %s refused put: %s", owner, msg)
	}
}

// fetchRing pulls a peer's membership + epoch document.
func (n *Node) fetchRing(ctx context.Context, id string) (ringDoc, error) {
	pt, err := n.peerOf(id)
	if err != nil {
		return ringDoc{}, err
	}
	r, err := pt.roundTrip(ctx, opRing, func(w *wireWriter) {})
	if err != nil {
		return ringDoc{}, err
	}
	if r.op != opRingResp {
		return ringDoc{}, &peerDownError{err: fmt.Errorf("cluster: ring from %s answered op %d", id, r.op)}
	}
	rd := &wireReader{buf: r.payload}
	doc := decodeRingResponse(rd)
	if derr := rd.finish(); derr != nil {
		return ringDoc{}, &peerDownError{err: fmt.Errorf("cluster: decode ring from %s: %w", id, derr)}
	}
	return doc, nil
}

// fetchObs pulls a peer's observability snapshot.
func (n *Node) fetchObs(ctx context.Context, id string) (*obs.Snapshot, error) {
	pt, err := n.peerOf(id)
	if err != nil {
		return nil, err
	}
	r, err := pt.roundTrip(ctx, opObs, func(w *wireWriter) {})
	if err != nil {
		return nil, err
	}
	if r.op != opObsResp {
		return nil, &peerDownError{err: fmt.Errorf("cluster: obs from %s answered op %d", id, r.op)}
	}
	s, err := decodeObsResponse(&wireReader{buf: r.payload})
	if err != nil {
		return nil, &peerDownError{err: fmt.Errorf("cluster: decode obs from %s: %w", id, err)}
	}
	return s, nil
}

// probe is the default health probe: one opRing round trip. It clears
// the peer's dial backoff first — the probe is the recovery detector,
// so it must dial a peer whose connections are gone even inside the
// window that holds forwards back — and a failed dial re-arms it.
func (n *Node) probe(ctx context.Context, id, _ string) error {
	pt, err := n.peerOf(id)
	if err != nil {
		return err
	}
	pt.clearBackoff()
	_, err = n.fetchRing(ctx, id)
	return err
}
