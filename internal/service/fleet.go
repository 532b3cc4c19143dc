package service

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// The fleet observability roll-up on the service side. Every replica
// serves its mergeable obs.Snapshot at GET /cluster/obs (mounted by the
// cluster node in cluster mode, by the service itself standalone so the
// endpoint shape is uniform); the node's PollObs merges the fleet's
// snapshots each gossip tick and hands the result to the SLO tracker.
// /metrics exposes the roll-up as the qr2_fleet_* families — a
// standalone replica reports a fleet of one from its local collector,
// so dashboards keep the same queries at every deployment size — and
// the multi-window qr2_slo_* burn rates on top.

// replicaID is the label this replica attributes its snapshots with.
func (s *Server) replicaID() string {
	if s.cfg.SelfID != "" {
		return s.cfg.SelfID
	}
	return "local"
}

// handleClusterObs serves the local snapshot in standalone mode (the
// cluster node mounts its own handler in cluster mode).
func (s *Server) handleClusterObs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.obsC.Snapshot(s.replicaID()))
}

// fleetView returns the freshest fleet roll-up available: the node's
// last poll in cluster mode (falling back to the local snapshot before
// the first poll completes), the local collector alone standalone.
func (s *Server) fleetView() (merged *obs.Snapshot, replicas map[string]*obs.Snapshot, at time.Time) {
	if s.node != nil {
		if m, reps, t := s.node.FleetObs(); m != nil {
			return m, reps, t
		}
	}
	local := s.obsC.Snapshot(s.replicaID())
	return local, map[string]*obs.Snapshot{local.Replica: local}, time.Now()
}

// fleetStatsDoc is the fleet roll-up section of GET /api/stats.
type fleetStatsDoc struct {
	Replicas int       `json:"replicas"`
	At       time.Time `json:"at"`
	// Traces/Slow/WebQueries are the fleet-wide cumulative counters;
	// QueriesPerAnswer is their lifetime cost ratio (the SLO burn rates
	// below measure the same ratio over sliding windows).
	Traces           uint64  `json:"traces"`
	Slow             uint64  `json:"slow"`
	WebQueries       uint64  `json:"web_queries"`
	QueriesPerAnswer float64 `json:"queries_per_answer"`
	// Request holds the fleet-merged per-path latency percentiles.
	Request map[string]obs.Percentiles `json:"request,omitempty"`
	// Replica attributes the roll-up: per-replica counters as of the
	// last poll.
	Replica map[string]fleetReplicaDoc `json:"replica,omitempty"`
	// SLO reports every (objective, window) burn rate.
	SLO []obs.SLOStatus `json:"slo,omitempty"`

	// merged and slo feed the histogram and SLO families on /metrics.
	merged *obs.Snapshot
	slo    *obs.SLOTracker
}

type fleetReplicaDoc struct {
	Traces     uint64 `json:"traces"`
	Slow       uint64 `json:"slow"`
	WebQueries uint64 `json:"web_queries"`
}

// fleetStats assembles the /api/stats fleet section (nil with tracing
// disabled).
func (s *Server) fleetStats() *fleetStatsDoc {
	if s.obsC == nil {
		return nil
	}
	merged, replicas, at := s.fleetView()
	doc := &fleetStatsDoc{
		Replicas:   len(replicas),
		At:         at,
		Traces:     merged.Traces,
		Slow:       merged.Slow,
		WebQueries: merged.WebQueries,
		Request:    make(map[string]obs.Percentiles, len(merged.Request)),
		Replica:    make(map[string]fleetReplicaDoc, len(replicas)),
		SLO:        s.slo.Status(time.Now()),
		merged:     merged,
		slo:        s.slo,
	}
	if doc.Traces > 0 {
		doc.QueriesPerAnswer = float64(doc.WebQueries) / float64(doc.Traces)
	}
	for path, h := range merged.Request {
		doc.Request[path] = h.Percentiles()
	}
	for id, snap := range replicas {
		doc.Replica[id] = fleetReplicaDoc{
			Traces: snap.Traces, Slow: snap.Slow, WebQueries: snap.WebQueries,
		}
	}
	return doc
}

// families renders the roll-up as the qr2_fleet_* families — merged
// fleet counters and latency histograms plus one health/attribution row
// per replica — and the qr2_slo_* burn rates. Nil-safe.
func (f *fleetStatsDoc) families() []obs.Family {
	if f == nil {
		return nil
	}
	fs := &familySet{at: map[string]int{}}
	fs.add([]row{
		{"qr2_fleet_replicas", gauge, "Replicas contributing to the current fleet roll-up.", int64(f.Replicas)},
		{"qr2_fleet_traces_total", counter, "Completed request traces, fleet-wide.", int64(f.Traces)},
		{"qr2_fleet_slow_traces_total", counter, "Slow-threshold exceedances, fleet-wide.", int64(f.Slow)},
		{"qr2_fleet_web_queries_total", counter, "Web-database queries spent, fleet-wide.", int64(f.WebQueries)},
	})
	for _, id := range obs.SortedKeys(f.Replica) {
		r := f.Replica[id]
		fs.add([]row{
			{"qr2_fleet_replica_up", gauge, "Replica present in the current fleet roll-up.", 1},
			{"qr2_fleet_replica_traces_total", counter, "Completed traces per replica, from its last polled snapshot.", int64(r.Traces)},
			{"qr2_fleet_replica_slow_traces_total", counter, "Slow traces per replica, from its last polled snapshot.", int64(r.Slow)},
			{"qr2_fleet_replica_web_queries_total", counter, "Web-database queries per replica, from its last polled snapshot.", int64(r.WebQueries)},
		}, "replica", id)
	}
	request := obs.Family{Name: "qr2_fleet_request_latency_seconds", Type: obs.TypeHistogram,
		Help: "Fleet-merged end-to-end request latency by decision path."}
	for _, path := range obs.SortedKeys(f.merged.Request) {
		request.Samples = append(request.Samples, f.merged.Request[path].Sample("path", path))
	}
	stage := obs.Family{Name: "qr2_fleet_stage_latency_seconds", Type: obs.TypeHistogram,
		Help: "Fleet-merged pipeline-stage latency by stage and outcome."}
	for _, key := range obs.SortedKeys(f.merged.Stage) {
		st, outcome, _ := strings.Cut(key, "/")
		stage.Samples = append(stage.Samples, f.merged.Stage[key].Sample("stage", st, "outcome", outcome))
	}
	fams := append(fs.fams, request, stage, obs.Family{Name: "qr2_fleet_snapshot_age_seconds", Type: obs.TypeGauge,
		Help:    "Age of the fleet roll-up this page reports from.",
		Samples: []obs.Sample{{Value: time.Since(f.At).Seconds()}}})
	return append(fams, f.slo.Families(f.SLO)...)
}
