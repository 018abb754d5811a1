package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "match", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "logio.read", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "match.search", Start: 40, End: 98},
		{ID: 4, Parent: 3, Name: "inner", Start: 50, End: 60},
	}
	rows := map[string]layerRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	if got := rows["match"].Self; got != 12 {
		t.Errorf("match self = %v, want 12", got)
	}
	if got := rows["match.search"].Self; got != 48 {
		t.Errorf("search self = %v, want 48", got)
	}
	cov := rootCoverage(spans, "match")
	if len(cov) != 1 || cov[0] != 0.88 {
		t.Errorf("coverage = %v, want [0.88]", cov)
	}
	if got := perRoot(spans, "match", "match."); len(got) != 1 || got[0] != (58*time.Nanosecond).Seconds() {
		t.Errorf("perRoot = %v", got)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 35, End: 50}}
	if got := covered(spans, 0, 45); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, "r")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", what, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eUnits)
	same("per_layer", b.PerLayer, layerUnits)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("workloads %v, program has %v", names, want)
		}
	}
}
