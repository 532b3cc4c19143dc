package cluster

import (
	"context"
	"sync"
	"time"
)

// Per-peer health checking. Peers start alive (optimistic: the common case
// is a healthy cluster, and a wrong guess costs one failed forward, which
// is detected passively and served by local fallback). A peer is marked
// dead either passively — a forward to it failed — or actively, when its
// periodic probe fails. Dead peers are re-probed on an exponential
// backoff, and a successful probe revives them, at which point the ring
// includes them again and their key ranges snap back.

// health tracks aliveness for every peer of a node.
type health struct {
	probe    func(ctx context.Context, id, url string) error
	interval time.Duration // probe period for alive peers
	backoff  time.Duration // first re-probe delay after death
	maxOff   time.Duration // backoff cap
	now      func() time.Time
	// onRevive fires (outside the lock) when a probe flips a peer from
	// dead to alive — the hook the node uses to re-home fallback entries
	// to the recovered owner.
	onRevive func(id string)

	mu    sync.Mutex
	peers map[string]*peerHealth
}

type peerHealth struct {
	url       string
	alive     bool
	fails     int64     // consecutive probe/forward failures
	nextProbe time.Time // zero = probe on the next tick
}

func newHealth(cfg Config) *health {
	h := &health{
		probe:    cfg.Probe,
		interval: cfg.ProbeInterval,
		backoff:  500 * time.Millisecond,
		maxOff:   30 * time.Second,
		now:      time.Now,
		peers:    make(map[string]*peerHealth),
	}
	if h.interval <= 0 {
		h.interval = 5 * time.Second
	}
	for id, url := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		h.peers[id] = &peerHealth{url: url, alive: true}
	}
	return h
}

// aliveFn returns the ring filter: self is always alive, peers by state.
func (h *health) alive(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	return ok && p.alive
}

// anyDead reports whether at least one peer is currently marked dead —
// the cheap guard before the stray-tracking ring lookup on the owned
// path.
func (h *health) anyDead() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.peers {
		if !p.alive {
			return true
		}
	}
	return false
}

// markDead records a passively observed failure (a forward that errored)
// and schedules the next active probe with backoff.
func (h *health) markDead(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	if !ok {
		return
	}
	p.alive = false
	p.fails++
	p.nextProbe = h.now().Add(h.backoffFor(p.fails))
}

// backoffFor doubles the re-probe delay per consecutive failure, capped.
func (h *health) backoffFor(fails int64) time.Duration {
	d := h.backoff
	for i := int64(1); i < fails && d < h.maxOff; i++ {
		d *= 2
	}
	if d > h.maxOff {
		d = h.maxOff
	}
	return d
}

// check probes peers: alive peers always (the caller paces calls at the
// probe interval), dead peers only once their backoff window has passed —
// unless force is set, which probes everyone immediately (tests, and the
// explicit CheckNow operator path).
func (h *health) check(ctx context.Context, force bool) {
	type probeJob struct {
		id  string
		url string
	}
	h.mu.Lock()
	now := h.now()
	var jobs []probeJob
	for id, p := range h.peers {
		if !force && !p.alive && now.Before(p.nextProbe) {
			continue
		}
		jobs = append(jobs, probeJob{id: id, url: p.url})
	}
	h.mu.Unlock()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j probeJob) {
			defer wg.Done()
			err := h.probe(ctx, j.id, j.url)
			h.mu.Lock()
			p, ok := h.peers[j.id]
			if !ok {
				h.mu.Unlock()
				return
			}
			if err != nil {
				p.alive = false
				p.fails++
				p.nextProbe = h.now().Add(h.backoffFor(p.fails))
				h.mu.Unlock()
				return
			}
			revived := !p.alive
			p.alive = true
			p.fails = 0
			p.nextProbe = time.Time{}
			h.mu.Unlock()
			if revived && h.onRevive != nil {
				h.onRevive(j.id)
			}
		}(j)
	}
	wg.Wait()
}

// snapshot reports every peer's state for stats and the ring document.
func (h *health) snapshot() map[string]PeerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]PeerStats, len(h.peers))
	for id, p := range h.peers {
		out[id] = PeerStats{ID: id, URL: p.url, Alive: p.alive, ConsecutiveFails: p.fails}
	}
	return out
}
