package obs

import (
	"fmt"
	"time"
)

// HistData is the wire form of one histogram: raw per-bucket counts plus
// the nanosecond sum. Every replica buckets with the identical
// power-of-two bounds, so histograms merge exactly — elementwise adds —
// and fleet quantiles computed from a merged HistData equal the
// quantiles a single collector would have reported over the union
// stream.
type HistData struct {
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
}

// histData snapshots a live histogram into its wire form.
func histData(h *Histogram) *HistData {
	counts, sum := h.snapshot()
	return &HistData{Counts: counts[:], Sum: sum}
}

// Clone deep-copies the data (nil-safe).
func (h *HistData) Clone() *HistData {
	if h == nil {
		return nil
	}
	return &HistData{Counts: append([]uint64(nil), h.Counts...), Sum: h.Sum}
}

// Merge adds o into h elementwise. A bucket-count mismatch (a corrupt or
// version-skewed peer) is an error and leaves h unchanged.
func (h *HistData) Merge(o *HistData) error {
	if o == nil {
		return nil
	}
	if len(h.Counts) == 0 {
		h.Counts = make([]uint64, len(o.Counts))
	}
	if len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merging %d-bucket histogram into %d buckets", len(o.Counts), len(h.Counts))
	}
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
	h.Sum += o.Sum
	return nil
}

// Count returns the number of observations (nil-safe).
func (h *HistData) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	return total
}

// Quantile estimates the q-quantile exactly as Histogram.Quantile does:
// the upper bound of the bucket containing it. Returns 0 when empty.
func (h *HistData) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return quantileOf(h.Counts, q)
}

// Sample returns the data as one series of a latency histogram family
// (bucket bounds and sum in seconds) with the given label pairs.
func (h *HistData) Sample(labels ...string) Sample {
	return Sample{Labels: labels, Hist: &HistSample{
		Bounds: latencyBounds, Counts: h.Counts, Sum: float64(h.Sum) / 1e9,
	}}
}

// Percentiles summarises the data in the same shape collectors report.
func (h *HistData) Percentiles() Percentiles {
	p := Percentiles{Count: h.Count()}
	if p.Count == 0 {
		return p
	}
	p.P50 = h.Quantile(0.5).Seconds()
	p.P90 = h.Quantile(0.9).Seconds()
	p.P99 = h.Quantile(0.99).Seconds()
	p.P999 = h.Quantile(0.999).Seconds()
	p.MeanS = float64(h.Sum) / 1e9 / float64(p.Count)
	return p
}

// Snapshot is one replica's mergeable observability export: cumulative
// trace counters plus every non-empty stage and request histogram in
// raw-count form. GET /cluster/obs serves it; the fleet roll-up merges
// one per replica into the qr2_fleet_* families.
type Snapshot struct {
	Replica string `json:"replica,omitempty"`
	// Traces, Slow and WebQueries are the replica's cumulative completed
	// traces, slow-threshold exceedances and web-database queries.
	Traces     uint64 `json:"traces"`
	Slow       uint64 `json:"slow"`
	WebQueries uint64 `json:"web_queries"`
	// Stage maps "stage/outcome" to that pair's latency histogram;
	// Request maps decision path names to end-to-end latency histograms.
	Stage   map[string]*HistData `json:"stage,omitempty"`
	Request map[string]*HistData `json:"request,omitempty"`
}

// Snapshot exports the collector's current state as a mergeable
// snapshot attributed to replica. Nil-safe (returns an empty snapshot).
func (c *Collector) Snapshot(replica string) *Snapshot {
	s := &Snapshot{
		Replica: replica,
		Stage:   map[string]*HistData{},
		Request: map[string]*HistData{},
	}
	if c == nil {
		return s
	}
	s.Traces = c.total.Load()
	s.Slow = c.slowTotal.Load()
	s.WebQueries = c.webQueries.Load()
	for st := Stage(0); st < numStages; st++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			h := &c.stage[st][o]
			if h.Count() == 0 {
				continue
			}
			s.Stage[st.String()+"/"+o.String()] = histData(h)
		}
	}
	for p := Path(0); p < numPaths; p++ {
		h := &c.request[p]
		if h.Count() == 0 {
			continue
		}
		s.Request[p.String()] = histData(h)
	}
	return s
}

// knownStage and knownPath hold every key a Collector's Snapshot can
// produce. Merge drops any other key, so a peer's snapshot cannot add
// series to the fleet families.
var knownStage, knownPath = func() (stages, paths map[string]bool) {
	stages, paths = map[string]bool{}, map[string]bool{}
	for st := Stage(0); st < numStages; st++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			stages[st.String()+"/"+o.String()] = true
		}
	}
	for p := Path(0); p < numPaths; p++ {
		paths[p.String()] = true
	}
	return stages, paths
}()

// Merge folds o into s: counters add, histograms merge elementwise.
// Histograms from o under a key no collector produces, or with a bucket
// count other than NumBuckets, are skipped (the first such error is
// returned, the rest of the merge completes). Nil o is a no-op.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	s.Traces += o.Traces
	s.Slow += o.Slow
	s.WebQueries += o.WebQueries
	var firstErr error
	merge := func(dst map[string]*HistData, known map[string]bool, key string, h *HistData) map[string]*HistData {
		if h == nil {
			return dst
		}
		if dst == nil {
			dst = map[string]*HistData{}
		}
		var err error
		switch have, ok := dst[key]; {
		case !known[key]:
			if firstErr == nil {
				err = fmt.Errorf("obs: merging histogram under unknown key %q", key)
			}
		case ok:
			err = have.Merge(h)
		case len(h.Counts) != NumBuckets:
			err = fmt.Errorf("obs: merging %d-bucket histogram into %d buckets", len(h.Counts), NumBuckets)
		default:
			dst[key] = h.Clone()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return dst
	}
	for k, h := range o.Stage {
		s.Stage = merge(s.Stage, knownStage, k, h)
	}
	for k, h := range o.Request {
		s.Request = merge(s.Request, knownPath, k, h)
	}
	return firstErr
}

// MergeSnapshots merges every snapshot into a fresh fleet snapshot
// (nil entries skipped).
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Stage: map[string]*HistData{}, Request: map[string]*HistData{}}
	for _, s := range snaps {
		_ = out.Merge(s)
	}
	return out
}

// RequestCount returns the observation count of one decision path's
// request histogram (nil-safe).
func (s *Snapshot) RequestCount(path string) uint64 {
	if s == nil {
		return 0
	}
	return s.Request[path].Count()
}

// StageCombined merges every outcome of one stage into a single
// histogram — latency of the stage regardless of how it ended. Returns
// an empty HistData when the stage saw no traffic.
func (s *Snapshot) StageCombined(stage string) *HistData {
	out := &HistData{}
	if s == nil {
		return out
	}
	prefix := stage + "/"
	for k, h := range s.Stage {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			_ = out.Merge(h)
		}
	}
	return out
}
