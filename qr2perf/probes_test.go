package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// served runs every form of tr to its third page from one sequential
// client, each form from a fresh session, and returns the page IDs and
// the web-database searches the run cost.
func served(t *testing.T, w *workload, ps probeSet, tr *traffic) (pages [][]int64, web int64, e *env) {
	t.Helper()
	e, err := buildEnv(w, ps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	e.tr = tr
	before := e.webQueries()
	c := newConn(e, 0)
	for _, f := range tr.forms {
		c.fresh()
		doc, err := c.query(f)
		for i := 0; err == nil; i++ {
			ids := make([]int64, len(doc.Rows))
			for j, r := range doc.Rows {
				ids[j] = r.ID
			}
			pages = append(pages, ids)
			if i == 2 || doc.Exhausted {
				break
			}
			doc, err = c.next(doc.QID)
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	return pages, e.webQueries() - before, e
}

// TestProbesChangeNothing shows that answers and web-query counts are
// identical with and without each probe, on fresh forms that crawl dense
// regions (so the store probe sees writes) and on the hot forms.
func TestProbesChangeNothing(t *testing.T) {
	w := *workloads["cold_browse"]
	w.rtt = 0
	cats := catalogs()
	cold := coldTraffic(cats, 3, 1)
	tr := &traffic{forms: append(parseForms(hotForms), cold.forms[:12]...)}

	wantPages, wantWeb, _ := served(t, &w, noProbes, tr)
	if wantWeb == 0 {
		t.Fatal("the forms cost no web queries; the comparison would be vacuous")
	}
	for _, tc := range []struct {
		name string
		ps   probeSet
	}{
		{"hidden", probeSet{hidden: true}},
		{"store", probeSet{store: true}},
		{"handler", probeSet{handler: true}},
		{"all", allProbes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages, web, e := served(t, &w, tc.ps, tr)
			if !reflect.DeepEqual(pages, wantPages) {
				t.Fatalf("answers differ with the %s probe", tc.name)
			}
			if web != wantWeb {
				t.Fatalf("web queries: %d with the %s probe, %d without", web, tc.name, wantWeb)
			}
			p := e.probes()
			if tc.ps.hidden && p.searches != e.webQueries() {
				t.Errorf("hidden probe counted %d searches, the databases answered %d", p.searches, e.webQueries())
			}
			if tc.ps.store && (p.puts == 0 || p.storeBusyNS == 0) {
				t.Errorf("store probe saw %d puts in %d ns; the forms should crawl", p.puts, p.storeBusyNS)
			}
			if tc.ps.handler {
				spans := e.spans.snapshot()
				if len(spans) < len(pages) {
					t.Errorf("handler probe recorded %d spans for %d pages", len(spans), len(pages))
				}
				for _, s := range spans {
					if s.layer <= layerNext && !strings.HasPrefix(s.rid, "w0-") {
						t.Fatalf("handler span carries request ID %q, want the driver's", s.rid)
					}
				}
			}
		})
	}
}

// TestClosureJoinsSpans checks the per-request decomposition on a
// hand-made log: 100 µs of latency, 60 µs in the handler of which two
// overlapping searches cover 30 µs, 25 µs on the client.
func TestClosureJoinsSpans(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	reqs := []reqRecord{{op: opQuery, ok: true, rid: "a", start: 0, wrote: us(10), firstByte: us(85), end: us(100)}}
	spans := []span{
		{layer: layerQuery, rid: "a", start: us(20), end: us(80)},
		{layer: layerHidden, rid: "a", start: us(30), end: us(50)},
		{layer: layerHidden, rid: "a", start: us(40), end: us(60)},
		{layer: layerHidden, rid: "other", start: us(0), end: us(100)},
	}
	c, busy := joinSpans(reqs, spans, 0, us(200))
	got := fmt.Sprintf("%.0f %.0f %.0f %.0f %.0f %.0f", c.latencyUS, c.clientUS, c.selfUS, c.waitUS, c.residualUS, c.driverResidualUS)
	if want := "100 25 30 30 15 40"; got != want {
		t.Fatalf("latency client self wait residual driver-residual = %s, want %s", got, want)
	}
	if busy != 0.5 {
		t.Fatalf("busy fraction %v, want 0.5", busy)
	}
}

// TestTracedPhase runs one second of ring_forward with every probe
// installed: every page passes the oracle and every request's handler
// span joins.
func TestTracedPhase(t *testing.T) {
	w := workloads["ring_forward"]
	e, err := buildEnv(w, allProbes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.tr = w.traffic(e.cats, 1, 1)
	p, err := runPhase(e, 1, testOracle(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.requests() == 0 || p.failed != 0 || p.verdict.mismatches != 0 {
		t.Fatalf("%d requests, %d failed, %d oracle mismatches %v %v", p.requests(), p.failed, p.verdict.mismatches, p.errs, p.verdict.examples)
	}
	if p.closure.joined != p.requests() || p.closure.unjoined != 0 {
		t.Fatalf("%d of %d requests joined their handler span", p.closure.joined, p.requests())
	}
	if p.svc["cluster.forwards"] == 0 {
		t.Fatal("no lookup was forwarded on a 3-replica ring")
	}
}
