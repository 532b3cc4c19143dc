package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestColdFormsAreValid: every pooled form binds (the service's own
// grammar), no range has min above max, and no catalog value lies exactly
// on a bound.
func TestColdFormsAreValid(t *testing.T) {
	cats := catalogs()
	o := testOracle(t)
	for _, p := range coldPool(cats, 1000) {
		f := p.form
		if _, err := o.bind(f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rel := cats[f.source].Rel
		for key, vals := range f.values {
			kind, attr, _ := strings.Cut(key, ".")
			if kind != "min" && kind != "max" {
				continue
			}
			v, _ := strconv.ParseFloat(vals[0], 64)
			if kind == "min" && f.values.Has("max."+attr) {
				if hi, _ := strconv.ParseFloat(f.values.Get("max."+attr), 64); v > hi {
					t.Fatalf("%s: min above max", f)
				}
			}
			a, _ := rel.Schema().Lookup(attr)
			for i := 0; i < rel.Len(); i++ {
				if rel.Tuple(i).Values[a] == v {
					t.Fatalf("%s: tuple %d lies on the bound %s", f, rel.Tuple(i).ID, key)
				}
			}
		}
	}
}

// TestTrafficIsSeeded: the same seed gives the same sessions and forms,
// another seed other ones (for cold_browse, the same pool in another
// order).
func TestTrafficIsSeeded(t *testing.T) {
	cats := catalogs()
	for _, w := range workloads {
		a, b, c := w.traffic(cats, 5, 1), w.traffic(cats, 5, 1), w.traffic(cats, 6, 1)
		sa, _ := a.session(3)
		sb, _ := b.session(3)
		sc, _ := c.session(3)
		if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(a.forms, b.forms) {
			t.Fatalf("%s: the same seed gave different traffic", w.name)
		}
		if reflect.DeepEqual(sa, sc) && reflect.DeepEqual(a.forms, c.forms) {
			t.Fatalf("%s: seeds 5 and 6 gave identical traffic", w.name)
		}
	}
}

// TestHotSkew: about 80% of pool_hot's steps use the two hot forms.
func TestHotSkew(t *testing.T) {
	tr := hotTraffic(nil, 1, 0)
	hot, steps := 0, 0
	for i := 0; i < 2000; i++ {
		s, _ := tr.session(i)
		for _, st := range s.steps {
			steps++
			if st.form < hotCount {
				hot++
			}
		}
	}
	if share := float64(hot) / float64(steps); share < 0.77 || share > 0.83 {
		t.Fatalf("hot share %.3f, want about %.2f", share, hotShare)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"pool_hot", "cold_browse", "ring_forward"}) || len(workloads) != 3 {
		t.Fatalf("BENCHMARK.json workloads %v", names)
	}
	p := &phase{wall: 1, closure: &closure{}}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    []metric
	}{{doc.EndToEnd, endToEnd(p, 1)}, {doc.PerLayer, perLayer(p, p, 0)}} {
		if len(c.listed) != len(c.got) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.got))
		}
		for i, m := range c.got {
			if c.listed[i].Name != m.name || c.listed[i].Unit != m.unit {
				t.Fatalf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, c.listed[i].Name, c.listed[i].Unit, m.name, m.unit)
			}
		}
	}
}
