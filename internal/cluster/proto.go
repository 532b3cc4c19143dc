package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/resilience"
)

// The peer answer-cache protocol. Peers talk over the binary frame
// transport (transport.go, codec.go), entered through one HTTP route on
// the same mux as the public service, so a replica's one listen address
// serves users and peers alike:
//
//	GET  /cluster/v2     Upgrade: qr2-peer/2 — the peer transport
//	GET  /cluster/ring   membership + health + epochs, JSON (operators)
//	GET  /cluster/obs    observability snapshot, JSON (operators)
//
// Predicates travel as bit-exact binary bounds, so both replicas derive
// the identical canonical cache key from the wire form. A lookup (opGet)
// never queries the web database: it answers from the owner's residency
// (exact, containment or crawl entry) or reports found=false, leaving
// the caller to pay the query and push the answer back (opPut).
//
// With an epoch registry configured (Config.Epochs), every message
// additionally carries (source, epoch seq): lookups carry the caller's
// seq and responses the owner's, puts the seq the answer was produced
// under, and the ring document every source's seq. The invalidation
// ordering across the ring is: (1) the detecting replica bumps locally —
// its wipes complete before the bump call returns; (2) any replica
// seeing a higher seq on any message adopts it via Registry.Observe,
// whose wipes likewise complete before the message is answered, so a
// lookup that triggered an adoption reports found=false from the
// already-wiped cache; (3) a put tagged with a seq below the receiver's
// is rejected (putStatusStale) and counted — the answer may predate the
// change, and losing an admission costs one repeated web query, never
// correctness; (4) the probe loop gossips epochs over opRing so replicas
// with no shared traffic converge within one probe interval.
//
// Region-scoped bumps travel too: when the sender's latest transition
// was confined to a rectangle, the seq is accompanied by its rect, so
// the adopting replica wipes only the intersecting slice of its caches.
// The fallback is always the full wipe: a message without a scope — an
// adoption that skips sequence numbers, a rect that fails to decode —
// adopts in full. Scope never weakens the ordering above; it only
// narrows what an adoption destroys.

// rectDoc is the wire form of a region.Rect (binary in codec.go, JSON in
// the /cluster/ring document). Interval bounds travel as IEEE-754 bit
// patterns (uint64) because JSON cannot represent ±Inf;
// Flags packs the open-endpoint bits (1 = LoOpen, 2 = HiOpen) per
// dimension. A peer that cannot express or decode the rect simply drops
// it, and the adoption falls back to a full wipe.
type rectDoc struct {
	Attrs []int    `json:"attrs"`
	Lo    []uint64 `json:"lo"`
	Hi    []uint64 `json:"hi"`
	Flags []byte   `json:"flags,omitempty"`
}

// encodeRect serialises a rect for the wire.
func encodeRect(r region.Rect) *rectDoc {
	d := &rectDoc{
		Attrs: append([]int(nil), r.Attrs...),
		Lo:    make([]uint64, len(r.Ivs)),
		Hi:    make([]uint64, len(r.Ivs)),
		Flags: make([]byte, len(r.Ivs)),
	}
	for i, iv := range r.Ivs {
		d.Lo[i] = math.Float64bits(iv.Lo)
		d.Hi[i] = math.Float64bits(iv.Hi)
		if iv.LoOpen {
			d.Flags[i] |= 1
		}
		if iv.HiOpen {
			d.Flags[i] |= 2
		}
	}
	return d
}

// rect reconstructs the region, failing on malformed documents so the
// caller can fall back to a full-wipe adoption.
func (d *rectDoc) rect() (region.Rect, error) {
	if d == nil || len(d.Attrs) != len(d.Lo) || len(d.Lo) != len(d.Hi) {
		return region.Rect{}, fmt.Errorf("cluster: malformed rect document")
	}
	ivs := make([]relation.Interval, len(d.Attrs))
	for i := range d.Attrs {
		iv := relation.Interval{Lo: math.Float64frombits(d.Lo[i]), Hi: math.Float64frombits(d.Hi[i])}
		if i < len(d.Flags) {
			iv.LoOpen = d.Flags[i]&1 != 0
			iv.HiOpen = d.Flags[i]&2 != 0
		}
		ivs[i] = iv
	}
	return region.New(d.Attrs, ivs)
}

// ringDoc is the ring document: GET /cluster/ring serves it as JSON and
// opRingResp carries it in binary.
type ringDoc struct {
	Self         string      `json:"self"`
	VirtualNodes int         `json:"virtual_nodes"`
	Peers        []PeerStats `json:"peers"`
	// Epochs maps each registered source to this replica's epoch seq —
	// the gossip payload peers pull to converge on bumps. Scopes carries,
	// for sources whose latest transition was region-confined, the rect
	// it was confined to; absent entries adopt as full wipes.
	Epochs map[string]uint64  `json:"epochs,omitempty"`
	Scopes map[string]rectDoc `json:"scopes,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Register mounts the peer transport's upgrade route and the read-only
// operator endpoints on a mux.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/v2", n.handleV2)
	mux.HandleFunc("GET /cluster/ring", n.handleRing)
	if n.snapshotFn != nil {
		mux.HandleFunc("GET /cluster/obs", n.handleObs)
	}
}

// hitMiss maps a residency probe's found flag to its span outcome.
func hitMiss(found bool) obs.Outcome {
	if found {
		return obs.OutcomeHit
	}
	return obs.OutcomeMiss
}

// admitFromPeer is the peer-admission core behind opPut. An untagged
// put (seq 0: the sender has no epoch registry) bypasses the gate
// entirely, mirroring the send side where seqOf==0 sends no tag —
// rejecting it would starve owners of every answer such peers
// compute. A put tagged
// below the local epoch is refused as stale (the answer may describe
// the pre-change database, and the wipe that accompanied the bump must
// stay clean); a sender ahead is adopted — wiping local pre-change
// state, only the scoped slice when it carried a rect — before its
// post-change answer is admitted.
func (n *Node) admitFromPeer(cs *clusterSource, ns string, pred relation.Predicate, res hidden.Result, seq uint64, scope *rectDoc) (int, string) {
	epochGated := false
	if local := n.seqOf(ns); local > 0 && seq > 0 {
		if seq < local {
			n.peerStalePuts.Add(1)
			return putStatusStale, fmt.Sprintf("stale epoch %d for %q (now %d)", seq, ns, local)
		}
		if seq > local {
			n.observeScoped(ns, seq, scope)
		}
		epochGated = true
	}
	n.peerPuts.Add(1)
	if epochGated {
		// Fenced on the produced-under epoch: a bump landing between the
		// staleness check above and the insert drops the admission inside
		// the cache's own locks instead of racing the wipe.
		cs.cache.AdmitAt(pred, res, seq)
	} else {
		cs.cache.Admit(pred, res)
	}
	// This admission may have landed here only because this replica is
	// the ring successor of a dead true owner; track it so the re-homing
	// pass moves it when the owner recovers.
	if n.health.anyDead() {
		key := qcache.KeyOf(pred)
		if trueOwner, ok := n.ring.Owner(ns+"\x00"+key, nil); ok && trueOwner != n.self {
			n.noteStray(ns, key, pred)
		}
	}
	return putStatusOK, ""
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.ringDoc())
}

// ringDoc snapshots membership, health and per-source epochs.
func (n *Node) ringDoc() ringDoc {
	doc := ringDoc{
		Self:         n.self,
		VirtualNodes: len(n.ring.points) / max(1, len(n.ring.ids)),
		Peers:        n.Stats().Peers,
	}
	if n.epochs == nil {
		return doc
	}
	n.mu.Lock()
	names := make([]string, 0, len(n.sources))
	for name := range n.sources {
		names = append(names, name)
	}
	n.mu.Unlock()
	doc.Epochs = make(map[string]uint64, len(names))
	for _, name := range names {
		seq, scope := n.epochOf(name)
		doc.Epochs[name] = seq
		if scope != nil {
			if doc.Scopes == nil {
				doc.Scopes = make(map[string]rectDoc)
			}
			doc.Scopes[name] = *scope
		}
	}
	return doc
}

// peerDownError marks failures that indict the peer itself — a failed
// dial, a response timeout, a 5xx-family opErr, a response that does
// not decode — rather than this one request (a 4xx from a healthy peer
// with a different source set must not knock it off the ring; flapping
// ownership would scatter duplicate answers across its successors).
type peerDownError struct{ err error }

func (e *peerDownError) Error() string { return e.err.Error() }
func (e *peerDownError) Unwrap() error { return e.err }

// isPeerDown reports whether err warrants excluding the peer.
func isPeerDown(err error) bool {
	var pd *peerDownError
	return errors.As(err, &pd)
}

// remoteGet proxies a cache lookup to the owner replica, exchanging
// source epochs both ways: the request carries this replica's seq (so an
// owner that fell behind adopts it and reports a clean miss), and the
// response's seq is adopted here when the owner is ahead — the wipe runs
// before the fresh answer is returned, so the caller serves post-change
// data from a post-change cache. Failures the retry policy's RetryIf
// accepts (peer-indicting by default) are retried per Config.Retry; a
// lookup is idempotent, so replaying it is always safe.
func (n *Node) remoteGet(ctx context.Context, owner, ns string, schema *relation.Schema, p relation.Predicate, seq uint64) (res hidden.Result, found bool, err error) {
	err = resilience.Do(ctx, n.retry, func(ctx context.Context) error {
		res, found, err = n.v2Get(ctx, owner, ns, schema, p, seq)
		return err
	})
	return res, found, err
}

// put pushes one answer to a peer's cache synchronously, tagged with the
// epoch seq it was produced under. Peer-indicting failures return a
// peerDownError and are retried per Config.Retry — an admission is
// idempotent (the cache keys on the predicate), so a replay after an
// ambiguous failure at worst re-admits the same entry; a stale-epoch
// rejection or a refusal returns a plain, final error.
func (n *Node) put(ctx context.Context, owner, ns string, schema *relation.Schema, p relation.Predicate, res hidden.Result, seq uint64) error {
	return resilience.Do(ctx, n.retry, func(ctx context.Context) error {
		return n.v2Put(ctx, owner, ns, schema, p, res, seq)
	})
}

// asyncAdmit pushes a locally computed answer to its owner in the
// background, tagged with the epoch seq captured before the web query
// was issued and the originating request's ID (so the owner's logs can
// correlate the push with the forward that caused it). The push is
// best-effort: a lost admission — including one the owner rejects as
// stale-epoch — costs at most one repeated web-database query later,
// never correctness. Quiesce waits for outstanding pushes.
func (n *Node) asyncAdmit(rid, owner, ns string, schema *relation.Schema, p relation.Predicate, res hidden.Result, seq uint64) {
	n.admits.Add(1)
	go func() {
		defer n.admits.Done()
		n.admitsSent.Add(1)
		ctx := obs.WithRequestID(context.Background(), rid)
		if err := n.put(ctx, owner, ns, schema, p, res, seq); err != nil {
			n.admitErrors.Add(1)
			if isPeerDown(err) {
				n.health.markDead(owner)
			}
		}
	}()
}
