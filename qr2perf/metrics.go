package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// statsDoc is the part of GET /api/stats the benchmark reads.
type statsDoc struct {
	Sessions int `json:"sessions"`
	Sources  map[string]struct {
		Cache *struct {
			Hits            int64 `json:"hits"`
			ContainmentHits int64 `json:"containment_hits"`
			CrawlHits       int64 `json:"crawl_hits"`
			Misses          int64 `json:"misses"`
			Coalesced       int64 `json:"coalesced"`
		} `json:"cache"`
		Resilience *struct {
			Retries        int64 `json:"retries"`
			DegradedServes int64 `json:"degraded_serves"`
			Opens          int64 `json:"breaker_opens"`
		} `json:"resilience"`
		DenseEntries       int   `json:"dense_entries"`
		DenseHits          int64 `json:"dense_hits"`
		DenseMisses        int64 `json:"dense_misses"`
		DenseResidentLoads int64 `json:"dense_resident_loads"`
	} `json:"sources"`
	Pool *struct {
		Bytes     int64 `json:"bytes"`
		Evictions int64 `json:"evictions"`
	} `json:"pool"`
	Cluster *struct {
		Forwards    int64 `json:"forwards"`
		ForwardHits int64 `json:"forward_hits"`
		Fallbacks   int64 `json:"fallbacks"`
		Coalesced   int64 `json:"coalesced"`
		AdmitsSent  int64 `json:"admits_sent"`
		Transport   *struct {
			FramesSent    int64 `json:"frames_sent"`
			BatchesSent   int64 `json:"batches_sent"`
			BatchedGets   int64 `json:"batched_gets"`
			HTTPFallbacks int64 `json:"http_fallbacks"`
		} `json:"transport"`
	} `json:"cluster"`
}

// counters fetches /api/stats from every replica and sums it into named
// counters. Cumulative counters are differenced across a phase; gauges
// (sessions, entries, bytes) are read at its end.
func (e *env) counters() (map[string]float64, error) {
	c := map[string]float64{}
	for _, rep := range e.replicas {
		resp, err := e.client.Get(rep.url + "/api/stats")
		if err != nil {
			return nil, err
		}
		var doc statsDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode /api/stats: %w", err)
		}
		c["session.live"] += float64(doc.Sessions)
		for _, s := range doc.Sources {
			if s.Cache != nil {
				c["qcache.hits"] += float64(s.Cache.Hits)
				c["qcache.containment_hits"] += float64(s.Cache.ContainmentHits)
				c["qcache.crawl_hits"] += float64(s.Cache.CrawlHits)
				c["qcache.misses"] += float64(s.Cache.Misses)
				c["qcache.coalesced"] += float64(s.Cache.Coalesced)
			}
			if s.Resilience != nil {
				c["resilience.retries"] += float64(s.Resilience.Retries)
				c["resilience.degraded_serves"] += float64(s.Resilience.DegradedServes)
				c["resilience.breaker_opens"] += float64(s.Resilience.Opens)
			}
			c["dense.entries"] += float64(s.DenseEntries)
			c["dense.hits"] += float64(s.DenseHits)
			c["dense.misses"] += float64(s.DenseMisses)
			c["dense.resident_loads"] += float64(s.DenseResidentLoads)
		}
		if doc.Pool != nil {
			c["qcache.bytes"] += float64(doc.Pool.Bytes)
			c["qcache.evictions"] += float64(doc.Pool.Evictions)
		}
		if cl := doc.Cluster; cl != nil {
			c["cluster.forwards"] += float64(cl.Forwards)
			c["cluster.forward_hits"] += float64(cl.ForwardHits)
			c["cluster.fallbacks"] += float64(cl.Fallbacks)
			c["cluster.coalesced"] += float64(cl.Coalesced)
			c["cluster.admits_sent"] += float64(cl.AdmitsSent)
			if t := cl.Transport; t != nil {
				c["cluster.frames_sent"] += float64(t.FramesSent)
				c["cluster.batches_sent"] += float64(t.BatchesSent)
				c["cluster.batched_gets"] += float64(t.BatchedGets)
				c["cluster.http_fallbacks"] += float64(t.HTTPFallbacks)
			}
		}
	}
	return c, nil
}

// gauges are read at the end of a phase rather than differenced.
var gauges = map[string]bool{"session.live": true, "dense.entries": true, "qcache.bytes": true}

// runtimeSnap is the process-wide runtime and CPU accounting.
type runtimeSnap struct {
	mallocs, allocBytes, gcs, pauseNS uint64
	cpu                               time.Duration
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// probeSnap is the traced environment's probe counters.
type probeSnap struct {
	searches, errors, busyNS, maxInflight int64
	puts, putBytes, gets, storeBusyNS     int64
}

func (e *env) probes() probeSnap {
	var p probeSnap
	for _, h := range e.hidden {
		p.searches += h.searches.Load()
		p.errors += h.errors.Load()
		p.busyNS += h.busyNS.Load()
		p.maxInflight = max(p.maxInflight, h.maxInfl.Load())
	}
	for _, s := range e.stores {
		p.puts += s.puts.Load()
		p.putBytes += s.putBytes.Load()
		p.gets += s.gets.Load()
		p.storeBusyNS += s.busyNS.Load()
	}
	return p
}

// phase is one timed run over one environment, reduced to numbers once
// the oracle has checked it.
type phase struct {
	wall     time.Duration
	sessions int
	// attempted and failed count requests; failed includes pages the
	// oracle rejected.
	attempted, failed int
	rows              int
	latMS             [2][]float64 // successful requests by op, sorted
	sliced            sliced
	verdict           verdict
	errs              []string           // examples of failed requests
	svc               map[string]float64 // /api/stats deltas and end gauges
	rt                runtimeSnap        // deltas
	heapPerSessionKB  float64
	webQueries        int64
	panel             panelAgg
	probes            probeSnap // deltas over the phase (traced only)
	life              probeSnap // totals over the environment's life (traced only)
	closure           *closure  // traced only
	hiddenBusy        float64   // share of the phase with a search in flight (traced only)
}

func (p *phase) requests() int { return len(p.latMS[opQuery]) + len(p.latMS[opNext]) }

func (p *phase) throughput() float64 { return float64(p.requests()) / p.wall.Seconds() }

// panelAgg sums the statistics panel's per-page deltas.
type panelAgg struct {
	cursors                           int
	queries, batches, crawls, crawled int64
	candidates                        int64
	parallelWeighted, parallelQueries float64
}

func aggregatePanels(pages []pageRecord) panelAgg {
	var a panelAgg
	last := map[int32]panelDoc{}
	for _, pg := range pages {
		prev, seen := last[pg.cursor]
		if !seen {
			a.cursors++
		}
		a.queries += pg.panel.Queries - prev.Queries
		a.batches += pg.panel.Batches - prev.Batches
		a.crawls += pg.panel.DenseCrawls - prev.DenseCrawls
		a.crawled += pg.panel.CrawledTuples - prev.CrawledTuples
		a.candidates += pg.panel.CacheCandidates - prev.CacheCandidates
		last[pg.cursor] = pg.panel
	}
	// parallel_pct is a cumulative share per cursor: weight each cursor's
	// final share by its queries.
	for _, p := range last {
		a.parallelWeighted += p.ParallelPct * float64(p.Queries)
		a.parallelQueries += float64(p.Queries)
	}
	return a
}

// runPhase measures one timed phase on a built environment, checks every
// page against the oracle and reduces the logs to numbers.
func runPhase(e *env, seconds int, o *oracle) (*phase, error) {
	heapBefore := liveHeap()
	svcBefore, err := e.counters()
	if err != nil {
		return nil, err
	}
	probesBefore, webBefore := e.probes(), e.webQueries()
	rtBefore := readRuntime()

	rec, start, end := drive(e, seconds)

	rtAfter := readRuntime()
	p := &phase{wall: time.Duration(end - start), sessions: rec.sessions, webQueries: e.webQueries() - webBefore}
	p.rt = runtimeSnap{
		mallocs: rtAfter.mallocs - rtBefore.mallocs, allocBytes: rtAfter.allocBytes - rtBefore.allocBytes,
		gcs: rtAfter.gcs - rtBefore.gcs, pauseNS: rtAfter.pauseNS - rtBefore.pauseNS, cpu: rtAfter.cpu - rtBefore.cpu,
	}
	svcAfter, err := e.counters()
	if err != nil {
		return nil, err
	}
	p.svc = map[string]float64{}
	for k, v := range svcAfter {
		if gauges[k] {
			p.svc[k] = v
		} else {
			p.svc[k] = v - svcBefore[k]
		}
	}
	p.life = e.probes()
	p.probes = probeSnap{
		searches: p.life.searches - probesBefore.searches, errors: p.life.errors - probesBefore.errors,
		busyNS: p.life.busyNS - probesBefore.busyNS, maxInflight: p.life.maxInflight,
	}

	if p.verdict, err = o.check(e.tr.forms, rec.pages); err != nil {
		return nil, err
	}
	p.panel = aggregatePanels(rec.pages)
	for _, pg := range rec.pages {
		p.rows += len(pg.ids)
	}
	p.attempted = len(rec.reqs)
	p.errs = rec.errs
	p.failed = p.verdict.mismatches
	for _, r := range rec.reqs {
		if !r.ok {
			p.failed++
			continue
		}
		p.latMS[r.op] = append(p.latMS[r.op], float64(r.end-r.start)/1e6)
	}
	for _, l := range p.latMS {
		sort.Float64s(l)
	}
	if e.tr.fixed {
		p.sliced = sliceMedians(rec.reqs, start, end, 1)
	} else {
		p.sliced = sliceMedians(rec.reqs, start, start+int64(seconds)*int64(time.Second), seconds)
	}
	if e.spans != nil {
		p.closure, p.hiddenBusy = joinSpans(rec.reqs, e.spans.snapshot(), start, end)
	}
	// The driver's logs are dropped before the live heap is read, so the
	// per-session figure holds only what the service keeps.
	rec = nil
	if p.sessions > 0 {
		p.heapPerSessionKB = (float64(liveHeap()) - float64(heapBefore)) / 1024 / float64(p.sessions)
	}
	return p, nil
}

// sliced is the medians, over equal time slices of a phase, of each
// slice's throughput and latency percentiles. A burst of noise from
// outside the benchmark moves a few slices, not the median.
type sliced struct {
	slices           int
	throughput       float64
	query50, query90 float64
	next50, next90   float64
}

// sliceMedians assigns each successful request to the slice of [from, to)
// it completed in (later completions are left out) and takes the median
// over n slices.
func sliceMedians(reqs []reqRecord, from, to int64, n int) sliced {
	width := (to - from) / int64(n)
	type slice struct {
		ok  int
		lat [2][]float64
	}
	per := make([]slice, n)
	for _, r := range reqs {
		if !r.ok || r.end < from {
			continue
		}
		i := int((r.end - from) / width)
		if i >= n {
			if n > 1 {
				continue
			}
			i = n - 1
		}
		per[i].ok++
		per[i].lat[r.op] = append(per[i].lat[r.op], float64(r.end-r.start)/1e6)
	}
	var tput, q50, q90, n50, n90 []float64
	for _, s := range per {
		tput = append(tput, float64(s.ok)/(float64(width)/1e9))
		for _, l := range s.lat {
			sort.Float64s(l)
		}
		q50 = append(q50, percentile(s.lat[opQuery], .5))
		q90 = append(q90, percentile(s.lat[opQuery], .9))
		n50 = append(n50, percentile(s.lat[opNext], .5))
		n90 = append(n90, percentile(s.lat[opNext], .9))
	}
	return sliced{slices: n, throughput: median(tput),
		query50: median(q50), query90: median(q90), next50: median(n50), next90: median(n90)}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// closure is the traced phase's per-request decomposition, as means over
// the successful requests whose handler span joined by request ID:
//
//	driver latency = driver.client + service.self + hidden.wait + residual
//
// driver.client is measured on the client (request written, and first
// response byte to decoded page); service.self is handler time not
// covered by the request's own web-database searches; hidden.wait is the
// part of the handler call those searches cover. The residual is what no
// layer claims: loopback transit and net/http work outside the handler.
type closure struct {
	joined, unjoined           int
	latencyUS, clientUS        float64
	serveUS                    [2]float64 // handler time by op
	selfUS, waitUS, residualUS float64
	driverResidualUS           float64 // latency minus handler time
}

// window is a span's [start, end) in nanoseconds since the log's epoch.
type window struct{ start, end int64 }

// coverage is the length of [lo, hi) covered by the union of ws, which
// it sorts.
func coverage(ws []window, lo, hi int64) int64 {
	sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	var covered int64
	reach := lo
	for _, w := range ws {
		if from, to := max(w.start, reach), min(w.end, hi); to > from {
			covered += to - from
		}
		reach = max(reach, w.end)
	}
	return covered
}

// joinSpans joins the traced phase's spans to the driver's requests by
// request ID. busyFrac is the share of [start, end) during which at
// least one web-database search was in flight.
func joinSpans(reqs []reqRecord, spans []span, start, end int64) (c *closure, busyFrac float64) {
	serve := map[string]window{}
	searches := map[string][]window{}
	var all []window
	for _, s := range spans {
		switch s.layer {
		case layerQuery, layerNext:
			serve[s.rid] = window{s.start, s.end}
		case layerHidden:
			searches[s.rid] = append(searches[s.rid], window{s.start, s.end})
			all = append(all, window{s.start, s.end})
		}
	}
	c = &closure{}
	var served [2]int
	for _, r := range reqs {
		if !r.ok {
			continue
		}
		w, ok := serve[r.rid]
		if !ok {
			c.unjoined++
			continue
		}
		c.joined++
		covered := float64(coverage(searches[r.rid], w.start, w.end))
		lat := float64(r.end - r.start)
		srv := float64(w.end - w.start)
		client := float64(r.wrote-r.start) + float64(r.end-r.firstByte)
		c.latencyUS += lat
		c.clientUS += client
		c.serveUS[r.op] += srv
		served[r.op]++
		c.selfUS += srv - covered
		c.waitUS += covered
		c.residualUS += lat - client - srv
		c.driverResidualUS += lat - srv
	}
	if c.joined > 0 {
		n := float64(c.joined) * 1e3 // ns sums to µs means
		c.latencyUS /= n
		c.clientUS /= n
		c.selfUS /= n
		c.waitUS /= n
		c.residualUS /= n
		c.driverResidualUS /= n
	}
	for op := range served {
		if served[op] > 0 {
			c.serveUS[op] /= float64(served[op]) * 1e3
		}
	}
	return c, float64(coverage(all, start, end)) / float64(end-start)
}
