package epoch

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hidden"
	"repro/internal/region"
	"repro/internal/relation"
)

// DefaultSentinels is the number of sentinel queries a prober records
// when ProberConfig.Sentinels is zero.
const DefaultSentinels = 8

// ErrPaused is returned by Probe when the round was abandoned because
// the source is unavailable rather than changed: the resilience layer's
// circuit is open, a sentinel answer came back degraded (fabricated),
// or the configured Unavailable classifier matched the query error. A
// paused round records no digests and bumps nothing — an unreachable
// source is not a changed source, and digesting a fabricated empty
// answer would bump the epoch (wiping every cache) the moment the
// source recovered.
var ErrPaused = errors.New("epoch: probe paused: source unavailable")

// ProberConfig sizes a change-detection prober.
type ProberConfig struct {
	// Sentinels is how many sentinel queries to record (default
	// DefaultSentinels, minimum 1). More sentinels widen the slice of the
	// source a probe observes — fewer false negatives — at one top-k
	// query each per probe.
	Sentinels int
	// Seed drives the deterministic sentinel placement (default 1). Two
	// probers with the same schema and seed replay identical queries.
	Seed int64
	// Unavailable classifies sentinel query errors that mean the source
	// is unreachable (open circuit, transport failure) rather than
	// broken: such rounds pause (counted in ProbeStats.Paused, error
	// ErrPaused) instead of counting as errors. Nil treats every query
	// error as an error.
	Unavailable func(error) bool
	// Hot supplies up to max canonical predicates ordered hottest-first
	// from live traffic (qcache.Cache.HotPredicates). When set, sentinel
	// placement is traffic-derived: each probe round keeps the unbounded
	// sentinel, replaces the schema-window sentinels with the hottest
	// predicates, and tops up with schema windows — probing concentrates
	// where reuse (and therefore staleness risk) actually is. A sentinel
	// whose predicate persists across refreshes keeps its armed baseline.
	// Nil keeps the static schema-derived placement.
	Hot func(max int) []relation.Predicate
}

// ProbeStats snapshots a prober's counters.
type ProbeStats struct {
	// Probes counts completed probe rounds; Mismatches counts rounds
	// that detected a change and bumped the epoch; Errors counts rounds
	// aborted by a failed sentinel query (no bump — an unreachable
	// source is not a changed source).
	Probes     int64 `json:"probes"`
	Mismatches int64 `json:"mismatches"`
	Errors     int64 `json:"errors"`
	// Paused counts rounds abandoned because the source was unavailable
	// (ErrPaused) — distinct from Errors so an outage reads as "probing
	// paused", not an error storm.
	Paused int64 `json:"paused"`
	// Refreshes counts traffic-derived placement changes: rounds where
	// the hot-predicate sample moved a sentinel (0 under static
	// placement).
	Refreshes int64 `json:"refreshes"`
	// Sentinels is the configured sentinel count.
	Sentinels int `json:"sentinels"`
}

// sentinel is one recorded query: its predicate, the region that
// predicate covers (nil for the unbounded sentinel — it covers
// everything), and the digest of the last answer observed for it.
type sentinel struct {
	pred   relation.Predicate
	key    string       // canonical identity for cross-refresh matching
	scope  *region.Rect // region the predicate covers; nil = unbounded
	digest [sha256.Size]byte
	armed  bool // false until a baseline digest has been recorded
}

// newSentinel derives the scope and identity key from the predicate.
func newSentinel(pred relation.Predicate) sentinel {
	return sentinel{pred: pred, key: pred.String(), scope: ScopeOf(pred)}
}

// covers reports whether a bump scoped to rect invalidates this
// sentinel's baseline: an unbounded sentinel (nil scope) observes the
// whole source, so every bump covers it; an unscoped bump (nil rect)
// covers every sentinel.
func (s *sentinel) covers(rect *region.Rect) bool {
	if rect == nil || s.scope == nil {
		return true
	}
	return s.scope.Intersects(*rect)
}

// Prober replays sentinel queries against a live source and bumps its
// epoch in the registry when any answer's digest changes. One prober per
// source per process; Probe is serialized internally.
type Prober struct {
	reg    *Registry
	source string
	db     hidden.DB

	mu      sync.Mutex // serializes Probe; guards sents and lastSeq
	sents   []sentinel
	base    []sentinel // static schema-derived placement, the top-up pool
	nsents  int        // immutable after construction; Stats reads it lock-free
	lastSeq uint64     // the epoch the armed digests were recorded under

	probes      atomic.Int64
	mismatches  atomic.Int64
	errors      atomic.Int64
	paused      atomic.Int64
	refreshes   atomic.Int64 // sentinel-set refreshes that changed placement
	unavailable func(error) bool
	hot         func(max int) []relation.Predicate
}

// NewProber builds a prober for source over db (the raw web database —
// probing through a cache would observe the cache, not the source).
// Sentinel predicates are derived deterministically from the schema and
// cfg.Seed: the full-domain top-k plus windows over each attribute, so a
// probe samples both the global ranking head and per-attribute slices.
func NewProber(reg *Registry, source string, db hidden.DB, cfg ProberConfig) *Prober {
	n := cfg.Sentinels
	if n <= 0 {
		n = DefaultSentinels
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	sents := makeSentinels(db.Schema(), n, seed)
	return &Prober{
		reg:         reg,
		source:      source,
		db:          db,
		sents:       sents,
		base:        append([]sentinel(nil), sents...),
		nsents:      len(sents),
		unavailable: cfg.Unavailable,
		hot:         cfg.Hot,
	}
}

// makeSentinels places n deterministic sentinel predicates: the empty
// predicate (the source's unfiltered top-k — the most change-sensitive
// single query there is), then per-attribute windows at pseudo-random
// positions inside each attribute's domain.
func makeSentinels(schema *relation.Schema, n int, seed int64) []sentinel {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sentinel, 0, n)
	out = append(out, newSentinel(relation.Predicate{}))
	for i := 1; i < n; i++ {
		a := schema.Attr((i - 1) % schema.Len())
		attr := (i - 1) % schema.Len()
		if a.Kind == relation.Categorical {
			if len(a.Categories) == 0 {
				out = append(out, newSentinel(relation.Predicate{}))
				continue
			}
			c := rng.Intn(len(a.Categories))
			out = append(out, newSentinel(relation.Predicate{}.WithCategories(attr, []int{c})))
			continue
		}
		span := a.Max - a.Min
		if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
			out = append(out, newSentinel(relation.Predicate{}))
			continue
		}
		width := span / 4
		lo := a.Min + rng.Float64()*(span-width)
		out = append(out, newSentinel(relation.Predicate{}.WithInterval(attr, relation.Closed(lo, lo+width))))
	}
	return out
}

// refreshSentinelsLocked re-derives the sentinel set from live traffic:
// slot 0 keeps the unbounded sentinel (only it can prove a global
// change), the hottest distinct canonical predicates fill the next
// slots, and the static schema windows top the set back up to size.
// Sentinels whose predicate survives the refresh carry their armed
// baseline over, so a stable hot set costs no re-recording. Caller
// holds p.mu.
func (p *Prober) refreshSentinelsLocked() {
	if p.hot == nil {
		return
	}
	prev := make(map[string]*sentinel, len(p.sents))
	for i := range p.sents {
		prev[p.sents[i].key] = &p.sents[i]
	}
	next := make([]sentinel, 0, p.nsents)
	seen := make(map[string]bool, p.nsents)
	add := func(s sentinel) {
		if len(next) == p.nsents || seen[s.key] {
			return
		}
		if old, ok := prev[s.key]; ok {
			s.digest, s.armed = old.digest, old.armed
		}
		seen[s.key] = true
		next = append(next, s)
	}
	add(p.base[0]) // the unbounded sentinel always probes
	for _, hp := range p.hot(p.nsents - 1) {
		if len(hp.Conditions()) == 0 {
			continue // the unbounded slot is already taken
		}
		add(newSentinel(hp))
	}
	for _, s := range p.base[1:] {
		add(s)
	}
	changed := len(next) != len(p.sents)
	for i := 0; !changed && i < len(next); i++ {
		changed = next[i].key != p.sents[i].key
	}
	if changed {
		p.refreshes.Add(1)
	}
	p.sents = next
}

// Digest hashes the wire-observable content of one top-k answer: the
// overflow flag, the tuple count, and every tuple's ID and value bits in
// result order. Two answers digest equal iff a client could not tell
// them apart.
func Digest(res hidden.Result) [sha256.Size]byte {
	h := sha256.New()
	var hdr [9]byte
	if res.Overflow {
		hdr[0] = 1
	}
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(res.Tuples)))
	h.Write(hdr[:])
	var buf [8]byte
	for _, t := range res.Tuples {
		binary.LittleEndian.PutUint64(buf[:], uint64(t.ID))
		h.Write(buf[:])
		for _, v := range t.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Probe replays every sentinel once. The first round (and the first
// round after any epoch change, local or adopted) records baseline
// digests without comparing; later rounds compare, and the first
// mismatch bumps the source's epoch in the registry — firing every
// subscriber wipe before Probe returns — and re-records the remaining
// sentinels against the new source version. bumped reports whether this
// round advanced the epoch. A sentinel query error aborts the round with
// no bump: an unreachable source is indistinguishable from a slow one,
// and wiping on it would trade availability for nothing.
func (p *Prober) Probe(ctx context.Context) (bumped bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// A bump that happened elsewhere (a cluster adoption, another
	// detector) invalidates recorded baselines: they describe a version
	// the registry already moved past. When the registry is exactly one
	// bump ahead and that bump carried a region scope, only baselines
	// whose sentinel could have observed the change — scope intersecting
	// the bumped rect, or the unbounded sentinel — are stale; the rest
	// still digest a region the change provably did not touch, so
	// hot-region probing survives the bump without a full re-record.
	// Any larger jump (or an unscoped bump) dis-arms everything.
	if cur := p.reg.Seq(p.source); cur != p.lastSeq {
		var scope *region.Rect
		if e, ok := p.reg.Get(p.source); ok && cur == p.lastSeq+1 {
			scope = e.Scope
		}
		for i := range p.sents {
			if scope == nil || p.sents[i].covers(scope) {
				p.sents[i].armed = false
			}
		}
		p.lastSeq = cur
	}
	p.refreshSentinelsLocked()
	rearming := false
	for i := range p.sents {
		s := &p.sents[i]
		res, serr := p.db.Search(ctx, s.pred)
		if serr != nil {
			if p.unavailable != nil && p.unavailable(serr) {
				p.paused.Add(1)
				return bumped, fmt.Errorf("%w: %v", ErrPaused, serr)
			}
			p.errors.Add(1)
			return bumped, serr
		}
		if res.Degraded {
			// The resilience layer fabricated this answer while the source
			// was unreachable. Digesting it would record an empty baseline
			// — and bump the epoch, wiping every cache, the instant the
			// source recovers with its real (unchanged) content.
			p.paused.Add(1)
			return bumped, ErrPaused
		}
		d := Digest(res)
		if !s.armed || rearming {
			s.digest, s.armed = d, true
			continue
		}
		if d != s.digest {
			p.mismatches.Add(1)
			// A bounded sentinel proves the change lies inside its region:
			// bump with that scope, so subscribers drop only intersecting
			// state. Only the unbounded sentinel forces the full bump.
			var e Epoch
			if s.scope != nil {
				e = p.reg.BumpRegion(p.source, *s.scope)
			} else {
				e = p.reg.Bump(p.source)
			}
			p.lastSeq = e.Seq
			bumped = true
			// This answer came from the post-change source; it is the new
			// baseline. Every other sentinel the bump covers is dis-armed
			// immediately: earlier ones matched baselines that may
			// themselves be pre-change (the change can land mid-round),
			// and later ones must not keep pre-change baselines if a
			// query error aborts this round before they re-record —
			// either way a stale covered baseline surviving to the next
			// round would bump a second time for the same change. A
			// sentinel the scoped bump provably cannot have affected
			// keeps its baseline — re-recording is confined to the
			// invalidated region. The rest of this round still re-arms
			// whatever it reaches (those answers are post-change anyway).
			s.digest = d
			for j := range p.sents {
				if j != i && p.sents[j].covers(e.Scope) {
					p.sents[j].armed = false
				}
			}
			rearming = true
		}
	}
	p.probes.Add(1)
	return bumped, nil
}

// Run probes on the interval until ctx is cancelled. Errors and pauses
// are counted (ProbeStats) and retried later: each consecutive failed
// round doubles the wait, up to 16× the interval, and the first clean
// round snaps it back — a dead source costs a trickle of probes instead
// of a steady error stream, and recovery is still noticed within one
// backed-off tick.
func (p *Prober) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	maxWait := 16 * interval
	wait := interval
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := p.Probe(ctx); err != nil {
				wait = min(wait*2, maxWait)
			} else {
				wait = interval
			}
			t.Reset(wait)
		}
	}
}

// Stats snapshots the prober counters. It deliberately takes no lock:
// Probe holds p.mu across every sentinel's (possibly slow) live query,
// and the observability endpoints must not stall behind a probe round.
func (p *Prober) Stats() ProbeStats {
	return ProbeStats{
		Probes:     p.probes.Load(),
		Mismatches: p.mismatches.Load(),
		Errors:     p.errors.Load(),
		Paused:     p.paused.Load(),
		Refreshes:  p.refreshes.Load(),
		Sentinels:  p.nsents,
	}
}
