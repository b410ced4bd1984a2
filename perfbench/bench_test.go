package main

import (
	"encoding/json"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchSmoke runs every workload briefly against a real roster, gate
// included, and checks that each run reports exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up a three-server roster per workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Errorf("workload %s is not defined", sw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			rep, err := bench(w, 1, 6*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			// Under the race detector the roster runs so slowly that a short
			// phase can hold no decided submission to time.
			if err := rep.finite(); err != nil && !raceEnabled() {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if u, ok := got[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported with unit %q, declared %q", w.name, traced, m.Name, u, m.Unit)
				}
			}
		}
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
