package obs

import (
	"sync"
	"time"
)

// SLO names — the label values of the qr2_slo_* families.
const (
	// SLOQueriesPerAnswer is the paper's cost metric: web-database
	// queries spent per completed answer, fleet-wide.
	SLOQueriesPerAnswer = "queries_per_answer"
	// SLODegradedFraction is the fraction of answers served degraded.
	SLODegradedFraction = "degraded_fraction"
	// SLOForwardP99 is the p99 latency of peer forwards.
	SLOForwardP99 = "forward_p99"
)

// SLOObjectives configures the query-cost service-level objectives the
// tracker burns against. Zero fields take the defaults.
type SLOObjectives struct {
	// QueriesPerAnswer is the budget of web-database queries per
	// completed answer (default 4 — one page of get-next under a warm
	// cache).
	QueriesPerAnswer float64
	// DegradedFraction is the tolerated fraction of degraded serves
	// (default 0.05).
	DegradedFraction float64
	// ForwardP99 is the peer-forward p99 latency budget (default 250ms).
	ForwardP99 time.Duration
	// Windows are the burn-rate windows, shortest first (default
	// 1m, 5m, 30m).
	Windows []time.Duration
}

func (o SLOObjectives) withDefaults() SLOObjectives {
	if o.QueriesPerAnswer <= 0 {
		o.QueriesPerAnswer = 4
	}
	if o.DegradedFraction <= 0 {
		o.DegradedFraction = 0.05
	}
	if o.ForwardP99 <= 0 {
		o.ForwardP99 = 250 * time.Millisecond
	}
	if len(o.Windows) == 0 {
		o.Windows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}
	}
	return o
}

// sloSample is one timestamped point of the cumulative fleet counters.
type sloSample struct {
	at       time.Time
	answers  uint64
	web      uint64
	degraded uint64
	forward  *HistData
}

// sloRingCap bounds the sample ring. At one sample per second it still
// spans the default 30m window comfortably.
const sloRingCap = 2048

// SLOTracker turns a stream of merged fleet snapshots into multi-window
// burn rates. Each Offer appends the snapshot's cumulative counters to a
// time-series ring; a window's actual value is the delta between the
// newest sample and the oldest sample still inside the window, so a
// short window isolates a recent burst that the process-lifetime
// counters on any single replica's /metrics page would dilute away.
// All methods are nil-safe.
type SLOTracker struct {
	obj SLOObjectives

	mu       sync.Mutex
	ring     []sloSample
	next     int
	filled   bool
	breaches map[string]uint64 // "slo\x00window" -> breach count
}

// NewSLOTracker builds a tracker (objectives defaulted).
func NewSLOTracker(obj SLOObjectives) *SLOTracker {
	return &SLOTracker{
		obj:      obj.withDefaults(),
		ring:     make([]sloSample, sloRingCap),
		breaches: map[string]uint64{},
	}
}

// Objectives returns the effective (defaulted) objectives.
func (t *SLOTracker) Objectives() SLOObjectives {
	if t == nil {
		return SLOObjectives{}.withDefaults()
	}
	return t.obj
}

// Offer appends one merged fleet snapshot observed at now, then counts a
// breach for every (slo, window) whose burn rate exceeds 1. Counter
// regressions between samples (a replica dropping out of the merge)
// clamp to zero rather than producing negative deltas.
func (t *SLOTracker) Offer(s *Snapshot, now time.Time) {
	if t == nil || s == nil {
		return
	}
	sample := sloSample{
		at:       now,
		answers:  s.Traces,
		web:      s.WebQueries,
		degraded: s.RequestCount(PathDegraded.String()),
		forward:  s.StageCombined(StagePeerForward.String()),
	}
	t.mu.Lock()
	t.ring[t.next] = sample
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.filled = true
	}
	statuses := t.statusLocked(now)
	for _, st := range statuses {
		if st.BurnRate > 1 {
			t.breaches[st.SLO+"\x00"+st.Window]++
		}
	}
	t.mu.Unlock()
}

// SLOStatus is one (objective, window) burn-rate report.
type SLOStatus struct {
	SLO       string  `json:"slo"`
	Window    string  `json:"window"`
	Objective float64 `json:"objective"`
	// Actual is the window's measured value in the objective's unit
	// (ratio, fraction, or seconds).
	Actual   float64 `json:"actual"`
	BurnRate float64 `json:"burn_rate"`
	Breaches uint64  `json:"breaches_total"`
}

// Status reports every (objective, window) pair's current burn rate.
func (t *SLOTracker) Status(now time.Time) []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statusLocked(now)
}

func (t *SLOTracker) statusLocked(now time.Time) []SLOStatus {
	newest, ok := t.sampleAt(0)
	if !ok {
		return nil
	}
	var out []SLOStatus
	for _, win := range t.obj.Windows {
		oldest := t.oldestWithin(now, win)
		dAnswers := clampDelta(newest.answers, oldest.answers)
		dWeb := clampDelta(newest.web, oldest.web)
		dDegraded := clampDelta(newest.degraded, oldest.degraded)
		dForward := deltaHist(newest.forward, oldest.forward)

		var qpa, degFrac float64
		if dAnswers > 0 {
			qpa = float64(dWeb) / float64(dAnswers)
			degFrac = float64(dDegraded) / float64(dAnswers)
		}
		fwdP99 := dForward.Quantile(0.99).Seconds()
		w := win.String()
		out = append(out,
			t.status(SLOQueriesPerAnswer, w, t.obj.QueriesPerAnswer, qpa),
			t.status(SLODegradedFraction, w, t.obj.DegradedFraction, degFrac),
			t.status(SLOForwardP99, w, t.obj.ForwardP99.Seconds(), fwdP99),
		)
	}
	return out
}

func (t *SLOTracker) status(slo, window string, objective, actual float64) SLOStatus {
	return SLOStatus{
		SLO:       slo,
		Window:    window,
		Objective: objective,
		Actual:    actual,
		BurnRate:  actual / objective,
		Breaches:  t.breaches[slo+"\x00"+window],
	}
}

// sampleAt returns the i-th newest sample (0 = newest).
func (t *SLOTracker) sampleAt(i int) (sloSample, bool) {
	n := t.next
	if t.filled {
		n = len(t.ring)
	}
	if i >= n {
		return sloSample{}, false
	}
	return t.ring[(t.next-1-i+len(t.ring))%len(t.ring)], true
}

// oldestWithin returns the oldest sample no older than the window. The
// window delta is measured against it; with a single sample the delta is
// zero (no burn until a second observation lands).
func (t *SLOTracker) oldestWithin(now time.Time, win time.Duration) sloSample {
	oldest, _ := t.sampleAt(0)
	for i := 1; ; i++ {
		s, ok := t.sampleAt(i)
		if !ok || now.Sub(s.at) > win {
			return oldest
		}
		oldest = s
	}
}

func clampDelta(newer, older uint64) uint64 {
	if newer < older {
		return 0
	}
	return newer - older
}

// deltaHist subtracts the older cumulative histogram from the newer,
// clamping each bucket at zero.
func deltaHist(newer, older *HistData) *HistData {
	out := newer.Clone()
	if out == nil {
		return &HistData{}
	}
	if older == nil {
		return out
	}
	for i := range out.Counts {
		var o uint64
		if i < len(older.Counts) {
			o = older.Counts[i]
		}
		out.Counts[i] = clampDelta(out.Counts[i], o)
	}
	out.Sum = clampDelta(out.Sum, older.Sum)
	return out
}

// Families returns the qr2_slo_* families for st, the statuses Status
// reported: per-objective gauges, per-(objective, window) burn-rate
// gauges and monotone breach counters. Before any Offer (st empty) every
// series is still emitted at zero so dashboards see the families from
// boot. Nil-safe (returns nil).
func (t *SLOTracker) Families(st []SLOStatus) []Family {
	if t == nil {
		return nil
	}
	if len(st) == 0 {
		for _, win := range t.obj.Windows {
			for _, slo := range []string{SLOQueriesPerAnswer, SLODegradedFraction, SLOForwardP99} {
				st = append(st, SLOStatus{SLO: slo, Window: win.String()})
			}
		}
	}
	objective := Family{Name: "qr2_slo_objective", Type: TypeGauge,
		Help: "Configured SLO objective (ratio, fraction, or seconds).",
		Samples: []Sample{
			{Labels: []string{"slo", SLOQueriesPerAnswer}, Value: t.obj.QueriesPerAnswer},
			{Labels: []string{"slo", SLODegradedFraction}, Value: t.obj.DegradedFraction},
			{Labels: []string{"slo", SLOForwardP99}, Value: t.obj.ForwardP99.Seconds()},
		}}
	burn := Family{Name: "qr2_slo_burn_rate", Type: TypeGauge,
		Help: "Windowed actual value divided by the objective; above 1 the SLO is burning."}
	breaches := Family{Name: "qr2_slo_breaches_total", Type: TypeCounter,
		Help: "Snapshot offers observed with the window's burn rate above 1."}
	for _, s := range st {
		labels := []string{"slo", s.SLO, "window", s.Window}
		burn.Samples = append(burn.Samples, Sample{Labels: labels, Value: s.BurnRate})
		breaches.Samples = append(breaches.Samples, Sample{Labels: labels, Value: float64(s.Breaches)})
	}
	return []Family{objective, burn, breaches}
}
