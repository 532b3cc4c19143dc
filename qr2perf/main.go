// Command qr2perf is QR2's whole-request benchmark. It runs the in-process
// service on loopback listeners, drives /api/query and /api/next from
// closed-loop clients with a fresh cookie jar per session, checks every
// page against a brute-force oracle and prints the metrics by name, with
// the last line of standard output a JSON result.
//
//	qr2perf --workload pool_hot --seed 1 --seconds 6 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, from an untraced phase (counters) and a traced phase
// (spans recorded by probes installed through the service's public
// seams), and writes the spans under --spans. See METRICS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run builds its environment; setup_s is
// the median, and the last build serves the timed phase.
const setupReps = 5

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: pool_hot, cold_browse or ring_forward")
		seed    = flag.Int64("seed", 1, "traffic seed")
		seconds = flag.Int("seconds", 6, "timed phase length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "directory for the traced run's span dump (empty: not written)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qr2perf: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qr2perf: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qr2perf: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles the result.
func measure(w *workload, seed int64, seconds int, traced bool, spanDir string) (*result, error) {
	cats := catalogs()
	o, err := newOracle(context.Background(), cats)
	if err != nil {
		return nil, err
	}
	if err := o.selfTest(); err != nil {
		return nil, err
	}
	tr := w.traffic(cats, seed, seconds)
	fmt.Printf("qr2perf: workload %s seed %d seconds %d trace %v, %d clients, bluenile+zillow n=%d system-k %d, round trip %v\n",
		w.name, seed, seconds, traced, clients, catalogN, systemK, w.rtt)

	res := &result{Metrics: map[string]map[string]any{}}
	var ms []metric
	if !traced {
		var (
			e      *env
			setups []float64
		)
		for i := 0; i < setupReps; i++ {
			if e != nil {
				e.close()
			}
			start := time.Now()
			if e, err = buildEnv(w, noProbes); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		e.tr = tr
		p, err := runPhase(e, seconds, o)
		e.close()
		if err != nil {
			return nil, err
		}
		report("timed phase", p)
		res.Correct = p.verdict.mismatches == 0
		res.Attempted, res.Failed = p.attempted, p.failed
		ms = endToEnd(p, median(setups))
	} else {
		untraced, err := phaseOn(w, tr, seconds, o)
		if err != nil {
			return nil, err
		}
		report("untraced phase", untraced)
		tracedEnv, err := buildEnv(w, allProbes)
		if err != nil {
			return nil, err
		}
		tracedEnv.tr = tr
		p, err := runPhase(tracedEnv, seconds, o)
		if err == nil && spanDir != "" {
			err = writeSpans(tracedEnv.spans, spanDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		}
		tracedEnv.close()
		if err != nil {
			return nil, err
		}
		report("traced phase", p)
		if p.probes.searches != p.webQueries {
			return nil, fmt.Errorf("hidden probe counted %d searches, the databases answered %d", p.probes.searches, p.webQueries)
		}
		res.Correct = untraced.verdict.mismatches == 0 && p.verdict.mismatches == 0
		res.Attempted = untraced.attempted + p.attempted
		res.Failed = untraced.failed + p.failed
		misses, probes, err := o.boundaryMisses(context.Background())
		if err != nil {
			return nil, err
		}
		fmt.Printf("boundary probe: %d of %d forms whose bound lies on a tuple value miss a tuple\n", misses, probes)
		ms = perLayer(untraced, p, misses)
		reportClosure(untraced, p)
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v)", m.name, m.value)
		}
		fmt.Printf("  %-38s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return res, nil
}

// phaseOn builds a fresh untraced environment, runs one phase on it and
// tears it down.
func phaseOn(w *workload, tr *traffic, seconds int, o *oracle) (*phase, error) {
	e, err := buildEnv(w, noProbes)
	if err != nil {
		return nil, err
	}
	defer func() {
		e.close()
		debug.FreeOSMemory() // the next phase should not stack on this one's heap
	}()
	e.tr = tr
	return runPhase(e, seconds, o)
}

func writeSpans(l *spanLog, dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return l.write(filepath.Join(dir, file))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is the untraced run's user-visible metrics.
func endToEnd(p *phase, setupS float64) []metric {
	s := p.sliced
	return []metric{
		{"throughput_rps", "1/s", s.throughput},
		{"query_p50_ms", "ms", s.query50},
		{"query_p90_ms", "ms", s.query90},
		{"next_p50_ms", "ms", s.next50},
		{"next_p90_ms", "ms", s.next90},
		{"heap_per_session_kb", "KB", p.heapPerSessionKB},
		{"ok_frac", "frac", ratio(float64(p.attempted-p.failed), float64(p.attempted))},
		{"setup_s", "s", setupS},
	}
}

// perLayer is the per-layer metrics: counters from the untraced phase u,
// spans and probe counts from the traced phase t, and the boundary
// probe's misses.
func perLayer(u, t *phase, boundaryMisses int) []metric {
	reqs := float64(u.requests())
	c := t.closure
	s := u.svc
	lookups := s["qcache.hits"] + s["qcache.containment_hits"] + s["qcache.crawl_hits"]
	return []metric{
		{"service.query_serve_us", "us", c.serveUS[opQuery]},
		{"service.next_serve_us", "us", c.serveUS[opNext]},
		{"service.self_us", "us", c.selfUS},
		{"driver.client_us", "us", c.clientUS},
		{"driver.residual_us", "us", c.driverResidualUS},
		{"driver.query_p99_ms", "ms", percentile(u.latMS[opQuery], 0.99)},
		{"driver.next_p99_ms", "ms", percentile(u.latMS[opNext], 0.99)},
		{"driver.failed_frac", "frac", ratio(float64(u.failed), float64(u.attempted))},
		{"trace.closure_residual_us", "us", c.residualUS},
		{"trace.overhead_pct", "%", 100 * (1 - ratio(t.throughput(), u.throughput()))},
		{"session.live", "count", s["session.live"]},
		{"session.cache_candidates_per_query", "count", ratio(float64(u.panel.candidates), float64(u.panel.cursors))},
		{"core.lookups_per_request", "count", ratio(float64(u.panel.queries), reqs)},
		{"core.waves_per_query", "count", ratio(float64(u.panel.batches), float64(u.panel.cursors))},
		{"core.parallel_pct", "%", ratio(u.panel.parallelWeighted, u.panel.parallelQueries)},
		{"core.dense_crawls", "count", float64(u.panel.crawls)},
		{"core.crawled_tuples", "count", float64(u.panel.crawled)},
		{"core.tie_order_divergences", "count", float64(u.verdict.tieDivergences)},
		{"core.boundary_misses", "count", float64(boundaryMisses)},
		{"qcache.hit_ratio", "frac", ratio(lookups, lookups+s["qcache.misses"])},
		{"qcache.hits", "count", s["qcache.hits"]},
		{"qcache.containment_hits", "count", s["qcache.containment_hits"]},
		{"qcache.crawl_hits", "count", s["qcache.crawl_hits"]},
		{"qcache.misses", "count", s["qcache.misses"]},
		{"qcache.coalesced", "count", s["qcache.coalesced"]},
		{"qcache.evictions", "count", s["qcache.evictions"]},
		{"qcache.bytes", "B", s["qcache.bytes"]},
		{"dense.hits", "count", s["dense.hits"]},
		{"dense.misses", "count", s["dense.misses"]},
		{"dense.entries", "count", s["dense.entries"]},
		{"dense.resident_loads", "count", s["dense.resident_loads"]},
		{"kvstore.puts", "count", float64(t.life.puts)},
		{"kvstore.put_bytes", "B", float64(t.life.putBytes)},
		{"kvstore.gets", "count", float64(t.life.gets)},
		{"kvstore.busy_us", "us", float64(t.life.storeBusyNS) / 1e3},
		{"resilience.retries", "count", s["resilience.retries"]},
		{"resilience.degraded_serves", "count", s["resilience.degraded_serves"]},
		{"resilience.breaker_opens", "count", s["resilience.breaker_opens"]},
		{"hidden.queries_per_request", "count", ratio(float64(t.probes.searches), float64(t.requests()))},
		{"hidden.query_us", "us", ratio(float64(t.life.busyNS), float64(t.life.searches)) / 1e3},
		{"hidden.wait_us", "us", c.waitUS},
		{"hidden.busy_frac", "frac", t.hiddenBusy},
		{"hidden.mean_inflight", "count", float64(t.probes.busyNS) / float64(t.wall.Nanoseconds())},
		{"hidden.max_inflight", "count", float64(t.life.maxInflight)},
		{"hidden.errors", "count", float64(t.probes.errors)},
		{"web_queries_per_answer", "count", ratio(float64(u.webQueries), float64(u.rows))},
		{"cluster.forwards_per_request", "count", ratio(s["cluster.forwards"], reqs)},
		{"cluster.forward_hit_ratio", "frac", ratio(s["cluster.forward_hits"], s["cluster.forwards"])},
		{"cluster.coalesced", "count", s["cluster.coalesced"]},
		{"cluster.fallbacks", "count", s["cluster.fallbacks"]},
		{"cluster.http_fallbacks", "count", s["cluster.http_fallbacks"]},
		{"cluster.batch_occupancy_mean", "count", ratio(s["cluster.batched_gets"], s["cluster.batches_sent"])},
		{"cluster.frames_per_request", "count", ratio(s["cluster.frames_sent"], reqs)},
		{"cluster.admits_sent", "count", s["cluster.admits_sent"]},
		{"runtime.allocs_per_request", "count", ratio(float64(u.rt.mallocs), reqs)},
		{"runtime.alloc_kb_per_request", "KB", ratio(float64(u.rt.allocBytes)/1024, reqs)},
		{"runtime.gc_cycles", "count", float64(u.rt.gcs)},
		{"runtime.gc_pause_ms", "ms", float64(u.rt.pauseNS) / 1e6},
		{"runtime.cpu_ms_per_request", "ms", ratio(float64(u.rt.cpu.Nanoseconds())/1e6, reqs)},
	}
}

// report prints a phase's sample counts and oracle verdict.
func report(label string, p *phase) {
	fmt.Printf("%s: %.2fs wall, %d sessions, %d requests attempted, %d failed, %d queries and %d nexts timed, %d rows, %d web queries\n",
		label, p.wall.Seconds(), p.sessions, p.attempted, p.failed, len(p.latMS[opQuery]), len(p.latMS[opNext]), p.rows, p.webQueries)
	fmt.Printf("  oracle: %d pages checked, %d mismatches, %d tie-order divergences\n",
		p.verdict.pages, p.verdict.mismatches, p.verdict.tieDivergences)
	for _, ex := range p.errs {
		fmt.Printf("  failed request: %s\n", ex)
	}
	for _, ex := range p.verdict.examples {
		fmt.Printf("  mismatch: %s\n", ex)
	}
	fmt.Printf("  medians over %d slices: %.1f req/s; query p50 %.3f p90 %.3f ms; next p50 %.3f p90 %.3f ms\n",
		p.sliced.slices, p.sliced.throughput, p.sliced.query50, p.sliced.query90, p.sliced.next50, p.sliced.next90)
	for op, name := range []string{"query", "next"} {
		l := p.latMS[op]
		fmt.Printf("  %-5s latency ms: p50 %.3f  p90 %.3f  p99 %.3f  (n=%d; %d samples beyond p99)\n",
			name, percentile(l, .5), percentile(l, .9), percentile(l, .99), len(l), len(l)/100)
	}
}

// reportClosure prints the traced phase's per-layer self time and the
// tracing overhead.
func reportClosure(u, t *phase) {
	c := t.closure
	fmt.Printf("closure over %d joined requests (%d unjoined), mean µs per request:\n", c.joined, c.unjoined)
	rows := []struct {
		layer string
		us    float64
	}{
		{"driver (client encode, read and decode)", c.clientUS},
		{"service (handler, self)", c.selfUS},
		{"hidden (web-database wait)", c.waitUS},
		{"residual (loopback, net/http outside the handler)", c.residualUS},
	}
	for _, r := range rows {
		fmt.Printf("  %-52s %10.1f  %5.1f%%\n", r.layer, r.us, 100*ratio(r.us, c.latencyUS))
	}
	fmt.Printf("  %-52s %10.1f\n", "driver-observed latency", c.latencyUS)
	if t.requests() > 0 {
		fmt.Printf("  kvstore busy inside service.self: %.2f µs per request\n",
			float64(t.life.storeBusyNS)/1e3/float64(t.requests()))
	}
	fmt.Printf("tracing overhead: %.0f req/s untraced, %.0f req/s traced (%.1f%%)\n",
		u.throughput(), t.throughput(), 100*(1-ratio(t.throughput(), u.throughput())))
}
