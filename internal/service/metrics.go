package service

import (
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/memgov"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/resilience"
)

// handleMetrics serves the snapshot /api/stats encodes, plus the trace
// collector's latency families, in the Prometheus text exposition format
// (text/plain; version=0.0.4), so standard scrapers can watch cache and
// dense-index hit rates without a client for the JSON API. Counters are
// cumulative since process start; gauges describe current residency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := s.stats()
	if f := doc.Fleet; f != nil {
		// Each scrape offers the roll-up to the SLO tracker, so a
		// standalone replica (no roll-up poller) accumulates burn-rate
		// samples at scrape cadence.
		now := time.Now()
		s.slo.Offer(f.merged, now)
		f.SLO = s.slo.Status(now)
	}
	fams := append(doc.families(), s.obsC.Families()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteFamilies(w, fams)
}

// row is one sample of a counter or gauge family.
type row struct {
	name, typ, help string
	value           int64
}

const (
	gauge   = obs.TypeGauge
	counter = obs.TypeCounter
)

// familySet gathers rows into families, in the order each family is
// first declared.
type familySet struct {
	fams []obs.Family
	at   map[string]int
}

// declare makes sure every row's family exists, so a family is served
// even while no subsystem contributes a sample to it.
func (fs *familySet) declare(rows []row) {
	for _, r := range rows {
		fs.family(r)
	}
}

// add appends each row as a sample of its family, with the given label
// pairs.
func (fs *familySet) add(rows []row, labels ...string) {
	for _, r := range rows {
		f := fs.family(r)
		f.Samples = append(f.Samples, obs.Sample{Labels: labels, Value: float64(r.value)})
	}
}

func (fs *familySet) family(r row) *obs.Family {
	i, ok := fs.at[r.name]
	if !ok {
		i = len(fs.fams)
		fs.at[r.name] = i
		fs.fams = append(fs.fams, obs.Family{Name: r.name, Type: r.typ, Help: r.help})
	}
	return &fs.fams[i]
}

// perSource adds rows(section) for every source whose snapshot has the
// section get returns (nil: the source lacks that subsystem), labelled
// by source name.
func perSource[T any](fs *familySet, d *serviceStatsDoc, get func(*sourceStatsDoc) *T, rows func(*T) []row) {
	fs.declare(rows(new(T)))
	for _, name := range obs.SortedKeys(d.Sources) {
		if v := get(d.Sources[name]); v != nil {
			fs.add(rows(v), "source", name)
		}
	}
}

// families renders the snapshot as Prometheus families.
func (d *serviceStatsDoc) families() []obs.Family {
	fs := &familySet{at: map[string]int{}}
	fs.add([]row{{"qr2_sessions", gauge, "Live user sessions.", int64(d.Sessions)}})
	perSource(fs, d, func(sd *sourceStatsDoc) *epochStatsDoc { return sd.Epoch }, epochRows)
	perSource(fs, d, func(sd *sourceStatsDoc) *resilience.Stats { return sd.Resilience }, resilienceRows)
	perSource(fs, d, func(sd *sourceStatsDoc) *qcache.Stats { return sd.Cache }, cacheRows)
	perSource(fs, d, func(sd *sourceStatsDoc) *dense.Stats { return &sd.Stats }, denseRows)
	if p := d.Pool; p != nil {
		fs.add([]row{
			{"qr2_qcache_pool_limit_bytes", gauge, "Global byte budget currently available to the answer-cache pool.", p.Limit},
			{"qr2_qcache_pool_bytes", gauge, "Bytes resident across all pool namespaces.", p.Bytes},
			{"qr2_qcache_pool_evictions_total", counter, "Pool-wide entries evicted for the global byte budget.", p.Evictions},
		})
	}
	if m := d.Mem; m != nil {
		fs.add([]row{{"qr2_mem_budget_bytes", gauge, "Governed process-wide cache byte budget.", m.Total}})
		fs.declare(accountRows(&memgov.AccountStats{}))
		for i := range m.Accounts {
			fs.add(accountRows(&m.Accounts[i]), "account", m.Accounts[i].Name)
		}
	}
	if cs := d.Cluster; cs != nil {
		fs.declare(peerRows(&cluster.PeerStats{}))
		for i := range cs.Peers {
			fs.add(peerRows(&cs.Peers[i]), "peer", cs.Peers[i].ID)
		}
		fs.add(clusterRows(cs), "self", cs.Self)
		// Peer transport: the qr2_peer_* families. Emitted whenever the
		// transport exists, so a ring that never managed a dial still
		// shows zeros.
		if ts := cs.Transport; ts != nil {
			fs.add(transportRows(ts), "self", cs.Self)
			fs.declare(connRows(&cluster.PeerTransportStats{}))
			for i := range ts.Peers {
				fs.add(connRows(&ts.Peers[i]), "self", cs.Self, "peer", ts.Peers[i].ID)
			}
			counts := make([]uint64, len(ts.BatchOccupancy))
			for i, n := range ts.BatchOccupancy {
				counts[i] = uint64(n)
			}
			fs.fams = append(fs.fams, obs.Family{Name: "qr2_peer_batch_occupancy", Type: obs.TypeHistogram,
				Help: "Lookups per flushed v2 lookup frame (batch occupancy).",
				Samples: []obs.Sample{{Labels: []string{"self", cs.Self}, Hist: &obs.HistSample{
					Bounds: cluster.OccupancyBounds, Counts: counts, Sum: float64(ts.OccupancySum()),
				}}}})
		}
	}
	return append(fs.fams, d.Fleet.families()...)
}

func epochRows(e *epochStatsDoc) []row {
	return []row{
		{"qr2_source_epoch", gauge, "Current source epoch seq (bumps when the live database visibly changes).", int64(e.Seq)},
		{"qr2_change_probes_total", counter, "Change-detection probe rounds (sentinel-query replays) completed.", e.Probes},
		{"qr2_change_probe_mismatches_total", counter, "Probe rounds that detected a source change and bumped the epoch.", e.Mismatches},
		{"qr2_change_probe_errors_total", counter, "Probe rounds aborted by a failed sentinel query (no bump).", e.Errors},
		{"qr2_change_probes_paused_total", counter, "Probe rounds paused because the source was unavailable (open breaker, degraded answer).", e.Paused},
	}
}

func resilienceRows(r *resilience.Stats) []row {
	var state int64
	for st := resilience.Closed; st <= resilience.HalfOpen; st++ {
		if st.String() == r.State {
			state = int64(st)
		}
	}
	return []row{
		{"qr2_source_breaker_state", gauge, "Circuit-breaker position per source: 0 closed, 1 open, 2 half-open.", state},
		{"qr2_source_breaker_opens_total", counter, "Closed-to-open breaker transitions (consecutive-failure threshold reached).", r.Opens},
		{"qr2_source_breaker_half_opens_total", counter, "Open-to-half-open breaker transitions (probe window elapsed).", r.HalfOpens},
		{"qr2_source_breaker_closes_total", counter, "Half-open-to-closed breaker transitions (probe succeeded).", r.Closes},
		{"qr2_source_attempts_total", counter, "Individual web-database attempts issued through the resilience layer.", r.Attempts},
		{"qr2_source_retries_total", counter, "Attempts beyond the first (transport-level failures replayed with backoff).", r.Retries},
		{"qr2_source_failures_total", counter, "Indictable (transport-level) attempt failures.", r.Failures},
		{"qr2_source_hedges_total", counter, "Duplicate attempts launched because the first exceeded the hedge delay.", r.Hedges},
		{"qr2_source_short_circuits_total", counter, "Calls rejected without an attempt because the breaker was open.", r.ShortCircuits},
		{"qr2_degraded_serves_total", counter, "Answers fabricated (empty, Degraded-marked) while the source was unreachable.", r.DegradedServes},
		{"qr2_source_rate_limited_total", counter, "Attempts that waited on the per-source token bucket.", r.RateWaits},
	}
}

func cacheRows(c *qcache.Stats) []row {
	return []row{
		{"qr2_qcache_epoch_wipes_total", counter, "Runtime epoch bumps that wiped the source's answer-cache namespace in full.", c.EpochWipes},
		{"qr2_qcache_partial_wipes_total", counter, "Region-scoped epoch bumps that wiped only the intersecting slice of the namespace.", c.PartialWipes},
		{"qr2_qcache_wipe_dropped_entries_total", counter, "Entries and crawl sets dropped by region-scoped wipes (they intersected the bumped rect).", c.WipeDropped},
		{"qr2_qcache_wipe_retained_total", counter, "Entries and crawl sets retained through region-scoped wipes (disjoint from the bumped rect).", c.WipeRetained},
		{"qr2_qcache_hits_total", counter, "Answer-cache exact hits.", c.Hits},
		{"qr2_qcache_containment_hits_total", counter, "Answer-cache overflow-aware (containment) hits.", c.ContainmentHits},
		{"qr2_qcache_crawl_hits_total", counter, "Answer-cache hits served from crawl-admitted region sets.", c.CrawlHits},
		{"qr2_qcache_misses_total", counter, "Answer-cache misses that queried the web database.", c.Misses},
		{"qr2_qcache_coalesced_total", counter, "Searches coalesced into an identical in-flight search.", c.Coalesced},
		{"qr2_qcache_evictions_total", counter, "Answer-cache entries evicted for the byte budget.", c.Evictions},
		{"qr2_qcache_entries", gauge, "Resident answer-cache entries.", int64(c.Entries)},
		{"qr2_qcache_complete_entries", gauge, "Complete answers available for containment reuse.", int64(c.CompleteEntries)},
		{"qr2_qcache_crawl_entries", gauge, "Crawl-admitted region match sets available for reuse.", int64(c.CrawlEntries)},
		{"qr2_qcache_bytes", gauge, "Bytes resident in the answer cache.", c.Bytes},
	}
}

func denseRows(d *dense.Stats) []row {
	return []row{
		{"qr2_dense_wipes_total", counter, "Whole-index invalidations of the dense-region index (unscoped epoch bumps).", d.Wipes},
		{"qr2_dense_region_wipes_total", counter, "Region-scoped invalidations that evicted only intersecting dense entries.", d.RegionWipes},
		{"qr2_dense_hits_total", counter, "Dense-index lookups answered by a covering entry.", d.Hits},
		{"qr2_dense_misses_total", counter, "Dense-index lookups with no covering entry.", d.Misses},
		{"qr2_dense_entries", gauge, "Crawled regions in the dense index.", int64(d.Entries)},
		{"qr2_dense_tuples", gauge, "Tuples materialised across dense entries.", int64(d.TuplesStored)},
		{"qr2_dense_resident_entries", gauge, "Dense entries with decoded tuples resident in memory.", int64(d.ResidentEntries)},
		{"qr2_dense_resident_bytes", gauge, "Bytes of decoded dense tuples resident in memory.", d.ResidentBytes},
		{"qr2_dense_resident_loads_total", counter, "Store loads forced by dense residency misses.", d.ResidentLoads},
		{"qr2_dense_resident_evictions_total", counter, "Dense entries evicted to respect the residency budget.", d.ResidentEvictions},
	}
}

func accountRows(a *memgov.AccountStats) []row {
	return []row{
		{"qr2_mem_account_bytes", gauge, "Bytes used per governed memory account.", a.Usage},
		{"qr2_mem_account_limit_bytes", gauge, "Current byte limit per governed memory account.", a.Limit},
	}
}

func peerRows(p *cluster.PeerStats) []row {
	var alive int64
	if p.Alive {
		alive = 1
	}
	return []row{{"qr2_cluster_peer_alive", gauge, "Ring membership: 1 when the peer answers health probes (self is always 1).", alive}}
}

func connRows(p *cluster.PeerTransportStats) []row {
	return []row{{"qr2_peer_conns", gauge, "Live pooled peer connections per peer.", int64(p.Conns)}}
}

func clusterRows(c *cluster.Stats) []row {
	return []row{
		{"qr2_cluster_owned_local_total", counter, "Searches whose key this replica owns, served through the local pool.", c.OwnedLocal},
		{"qr2_cluster_peer_stale_puts_total", counter, "Peer admissions rejected for carrying an older source epoch than this replica serves under.", c.PeerStalePuts},
		{"qr2_cluster_epoch_adopts_total", counter, "Higher source epochs adopted from peers (each adoption wiped the affected namespace).", c.EpochAdopts},
		{"qr2_cluster_rehomed_total", counter, "Stray entries pushed back to their recovered owner and released locally.", c.Rehomed},
		{"qr2_cluster_local_hits_total", counter, "Foreign-owned searches served from local residency (crawl sets, fallback entries).", c.LocalHits},
		{"qr2_cluster_forwards_total", counter, "Cache lookups proxied to owner replicas.", c.Forwards},
		{"qr2_cluster_forward_hits_total", counter, "Proxied lookups the owner answered — zero web-database queries.", c.ForwardHits},
		{"qr2_cluster_forward_misses_total", counter, "Proxied lookups the owner lacked; this replica paid the web query and pushed the answer.", c.ForwardMisses},
		{"qr2_cluster_fallbacks_total", counter, "Failed forwards served entirely through the local pool (owner marked dead).", c.Fallbacks},
		{"qr2_cluster_coalesced_total", counter, "Foreign-owned searches that joined an identical in-flight forward.", c.Coalesced},
		{"qr2_cluster_admits_sent_total", counter, "Locally computed answers pushed to their owner replicas.", c.AdmitsSent},
		{"qr2_cluster_admit_errors_total", counter, "Answer pushes that failed (lost admissions cost a repeated query, never correctness).", c.AdmitErrors},
		{"qr2_cluster_peer_gets_total", counter, "Peer lookups this replica served.", c.PeerGets},
		{"qr2_cluster_peer_get_hits_total", counter, "Peer lookups answered from this replica's residency.", c.PeerGetHits},
		{"qr2_cluster_peer_puts_total", counter, "Peer answer admissions this replica accepted.", c.PeerPuts},
		{"qr2_cluster_strays", gauge, "Tracked fallback-admitted entries awaiting re-homing to their recovered owner.", int64(c.Strays)},
	}
}

func transportRows(t *cluster.TransportStats) []row {
	return []row{
		{"qr2_peer_frames_sent_total", counter, "Peer protocol v2 frames written (both roles: RPCs issued plus server answers).", t.FramesSent},
		{"qr2_peer_frames_recv_total", counter, "Peer protocol v2 frames read (both roles: responses received plus server requests).", t.FramesRecv},
		{"qr2_peer_batches_sent_total", counter, "opBatchGet frames sent (two or more lookups coalesced into one frame).", t.BatchesSent},
		{"qr2_peer_batched_gets_total", counter, "Forwarded lookups that travelled inside a batch frame.", t.BatchedGets},
		{"qr2_peer_v2_dials_total", counter, "Persistent peer connection dials attempted, redials of connections lost mid-request included.", t.V2Dials},
		{"qr2_peer_v2_dial_fails_total", counter, "Persistent peer connection dials that failed (connect, upgrade or handshake).", t.V2DialFails},
	}
}
