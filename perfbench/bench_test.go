package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"lightwsp/internal/machine"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%t", tc.p*100, tc.n, err, tc.ok)
		}
	}
	if v, _ := percentile(seq(100), 0.9); v != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank)", v)
	}
	if v, _ := percentile(seq(100), 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50 (nearest rank)", v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSeededSequencesRepeat(t *testing.T) {
	a, b := zipfSequence(7, 1000, 16), zipfSequence(7, 1000, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different Zipf sequences")
	}
	if reflect.DeepEqual(a, zipfSequence(8, 1000, 16)) {
		t.Fatal("different seeds gave the same Zipf sequence")
	}
	for _, k := range a {
		if k < 0 || k >= 16 {
			t.Fatalf("Zipf index %d out of range", k)
		}
	}

	const total, n = 734_634, 28
	c, d := cutSample(7, n, total, 16.0/28, earlyFrac), cutSample(7, n, total, 16.0/28, earlyFrac)
	if !reflect.DeepEqual(c, d) {
		t.Fatal("equal seeds gave different cut samples")
	}
	if reflect.DeepEqual(c, cutSample(8, n, total, 16.0/28, earlyFrac)) {
		t.Fatal("different seeds gave the same cut sample")
	}
	early := 0
	for _, cut := range c {
		if cut >= total {
			t.Fatalf("cut %d beyond the run's %d cycles", cut, total)
		}
		if float64(cut) < earlyFrac*total {
			early++
		}
	}
	if early < n-16 {
		t.Fatalf("%d cuts in the probe-guided window, want at least %d", early, n-16)
	}
}

// TestStatsDigest checks the digest repeats for equal statistics and moves
// when any single field changes.
func TestStatsDigest(t *testing.T) {
	base := machine.Stats{Cycles: 734_634, Instructions: 924_653, L1Hits: 5}
	copied := base
	if statsDigest(&base) != statsDigest(&copied) || statsDigest(&base) != statsDigest(&base) {
		t.Fatal("equal statistics gave different digests")
	}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("field %s has kind %s the test does not vary", v.Type().Field(i).Name, f.Kind())
		}
		if statsDigest(&changed) == statsDigest(&base) {
			t.Errorf("changing %s left the digest unchanged", v.Type().Field(i).Name)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "a", Parent: 0, Start: 3, End: 4},
		{Name: "b", Parent: 0, Start: 6, End: 7},
	}}
	self, n := tr.layerTimes()
	if self["op"] != 6 || self["a"] != 3 || self["b"] != 1 || n["a"] != 2 {
		t.Fatalf("self times %v counts %v, want op 6, a 3 over 2 spans, b 1", self, n)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, -1); id != -1 || nilTracer.end(id) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}

// TestMetricsMatchManifest pins the metric lists a run reports to the ones
// BENCHMARK.json declares, names and units in order.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range l.got {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, l.want) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", l.kind, got, l.want)
		}
	}
}

func TestCompleteFillsAndRefuses(t *testing.T) {
	r := &result{}
	r.set("machine.step_s", 1.5, "s")
	if err := r.complete(true); err != nil || len(r.Metrics) != len(perLayer) || r.Metrics["fleet.forwards"] != (metric{0, "count"}) {
		t.Fatalf("traced complete: err %v, %d metrics, want every per-layer metric", err, len(r.Metrics))
	}
	if err := (&result{}).complete(false); err == nil {
		t.Error("untraced complete accepted a result with no end-to-end metrics")
	}
	bad := &result{}
	bad.set("machine.step_s", 1, "ms")
	if err := bad.complete(true); err == nil {
		t.Error("complete accepted a metric in the wrong unit")
	}
}
