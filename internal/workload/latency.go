package workload

import (
	"runtime"
	"time"

	"repro/internal/obs"
)

// LatencyReport is the measured-latency artifact a workload run emits
// (checked in as BENCH_workload.json by cmd/qr2bench -workload). It is
// built from the service's own obs.Collector — the identical histograms
// /metrics exports — so the checked-in numbers and a scrape of a live
// server can never disagree about what was measured.
type LatencyReport struct {
	Description string         `json:"description"`
	Environment LatencyEnv     `json:"environment"`
	Requests    []PathLatency  `json:"request_latency_by_path"`
	Stages      []StageLatency `json:"stage_latency"`
	// SLO reports the run's burn rate against each query-cost objective
	// (see SLOFrom); empty when the workload did not measure it.
	SLO []obs.SLOStatus `json:"slo,omitempty"`
	// Replay holds the multi-user trace-replay rows: one row per
	// (mode, GOMAXPROCS) point of the concurrency sweep.
	Replay []ReplayRow `json:"replay,omitempty"`
}

// ReplayRow is one measured point of the trace-replay sweep: a replay
// of the same multi-user trace set at one GOMAXPROCS setting in one
// admission mode. Driver is the exact-sample latency distribution the
// load driver observed; Paths attributes the same requests by answer
// path from the service's own histograms (via RequestDelta).
type ReplayRow struct {
	Mode          string          `json:"mode"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Concurrency   int             `json:"concurrency,omitempty"`
	RateHz        float64         `json:"rate_hz,omitempty"`
	Users         int             `json:"users"`
	Requests      uint64          `json:"requests"`
	Errors        uint64          `json:"errors"`
	ThroughputRPS float64         `json:"throughput_rps"`
	Driver        obs.Percentiles `json:"driver_latency"`
	Paths         []PathLatency   `json:"request_latency_by_path"`
}

// LatencyEnv records where the numbers were taken.
type LatencyEnv struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	Note   string `json:"note,omitempty"`
}

// PathLatency is the whole-request latency distribution of one answer
// path (pool-hit, containment, crawl-set, dense, peer, web, none).
type PathLatency struct {
	Path string `json:"path"`
	obs.Percentiles
}

// StageLatency is the span latency distribution of one stage/outcome
// pair, keyed exactly as the qr2_stage_latency_seconds labels join them.
type StageLatency struct {
	Stage string `json:"stage"`
	obs.Percentiles
}

// LatencyFrom snapshots a collector into a LatencyReport. Paths and
// stages with no observations are omitted; the rest are sorted by key so
// the artifact diffs cleanly between runs.
func LatencyFrom(col *obs.Collector, description, note string) *LatencyReport {
	rep := &LatencyReport{
		Description: description,
		Environment: LatencyEnv{
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(),
			Note:   note,
		},
	}
	snap := col.Snapshot("")
	for _, path := range obs.SortedKeys(snap.Request) {
		rep.Requests = append(rep.Requests, PathLatency{Path: path, Percentiles: snap.Request[path].Percentiles()})
	}
	for _, st := range obs.SortedKeys(snap.Stage) {
		rep.Stages = append(rep.Stages, StageLatency{Stage: st, Percentiles: snap.Stage[st].Percentiles()})
	}
	return rep
}

// SLOFrom measures one run's burn rates: a fresh tracker is offered the
// pre-run and post-run snapshots spaced by the run's elapsed time, so
// every window's delta is exactly the run — the same accounting a live
// fleet's qr2_slo_* families apply to their sliding windows.
func SLOFrom(obj obs.SLOObjectives, before, after *obs.Snapshot, elapsed time.Duration) []obs.SLOStatus {
	tr := obs.NewSLOTracker(obj)
	now := time.Now()
	tr.Offer(before, now.Add(-elapsed))
	tr.Offer(after, now)
	return tr.Status(now)
}
