package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny size, untraced and traced,
// and checks the printed result against BENCHMARK.json; then it shows
// that every output check fails when its expected value is corrupted.

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyOpts(workload string, trace bool) opts {
	return opts{workload: workload, seed: 1, seconds: 0.2, trace: trace, tiny: true, fwdRate: 25000}
}

// runTiny runs one workload and returns its report and parsed result line.
func runTiny(t *testing.T, o opts) (*report, jsonResult) {
	t.Helper()
	r := newReport(o)
	if err := workloads[o.workload](o, r); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", o.workload, err)
	}
	return r, res
}

// TestDeclaredMetricsMatchSpec checks the harness's metric tables
// against BENCHMARK.json, name by name and unit by unit, in order.
func TestDeclaredMetricsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if d := c.defs[i]; d.name != m.Name || d.unit != m.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s in %s, harness %s in %s", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced
// and checks that the result line carries exactly the declared metrics
// with their units, that every end-to-end metric is positive, and that
// every per-layer metric is measured by some workload.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, trace := range []bool{false, true} {
		list := spec.EndToEnd
		if trace {
			list = spec.PerLayer
		}
		measured := map[string]bool{}
		for _, w := range spec.Workloads {
			r, res := runTiny(t, tinyOpts(w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v prints %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(list))
			}
			for _, d := range list {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v does not print %s", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v prints %s in %s, declared %s", w.Name, trace, d.Name, m.Unit, d.Unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s prints end-to-end %s = %v, want a positive value", w.Name, d.Name, m.Value)
				}
				if _, ok := r.metrics[d.Name]; ok {
					measured[d.Name] = true
				}
			}
		}
		for _, d := range list {
			if !measured[d.Name] {
				t.Errorf("trace=%v: no workload measures %s", trace, d.Name)
			}
		}
	}
}

func TestCorruptedChecksFail(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		for _, trace := range []bool{false, true} {
			r, _ := runTiny(t, tinyOpts(w.Name, trace))
			names := map[string]bool{}
			for _, c := range r.checks {
				names[c.name] = true
			}
			var sorted []string
			for n := range names {
				sorted = append(sorted, n)
			}
			sort.Strings(sorted)
			for _, name := range sorted {
				o := tinyOpts(w.Name, trace)
				o.corrupt = name
				if bad, res := runTiny(t, o); bad.correct() || res.Correct {
					t.Errorf("%s trace=%v: corrupting %s left the run correct", w.Name, trace, name)
				}
			}
		}
	}
}
