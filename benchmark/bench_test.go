package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the smoke test holds the
// program to: the names it registers are the names that get emitted.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics fails unless got holds exactly the registered names, each
// with the registered unit and a finite value.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var wantNames []string
	for _, w := range want {
		wantNames = append(wantNames, w.Name)
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is registered in BENCHMARK.json but not emitted", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, registered as %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, w.Name, m.Value)
		}
	}
	sort.Strings(wantNames)
	if gotNames := sortedNames(got); !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("%s: emitted %v, registered %v", what, gotNames, wantNames)
	}
}

// TestSmoke runs every workload traced at a fiftieth of its size, then
// the ladder and the kernels once, and holds the result to
// BENCHMARK.json: same workloads, same metric names and units, finite
// values, positive where a zero would mean nothing was measured, every
// output check passing, and self times that add up to the top rung.
func TestSmoke(t *testing.T) {
	sp := readSpec(t)
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	st := settings{
		seed: 7, rows: 2000, setups: 1,
		warm: 200 * time.Millisecond, measure: time.Second, windows: 2, ref: ref,
		outDir: t.TempDir(), trace: true, scale: 0.02,
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json registers %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	tr := newTracer()
	shared := map[string]metric{}
	for _, part := range []func(settings, *tracer) (map[string]metric, error){ladder, kernels} {
		m, err := part(st, tr)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range m {
			shared[name] = v
			if v.Value <= 0 && !strings.HasSuffix(name, "_self_us") { // a difference of two noisy medians may dip below 0
				t.Errorf("%s = %v, want > 0", name, v.Value)
			}
		}
	}
	for _, chain := range [][]string{
		{"ladder.read.tcp_us", "wire.read_self_us", "serve.read_self_us", "sql.read_self_us", "fs.read_self_us", "dp.read_self_us"},
		{"ladder.write.tcp_us", "wire.write_self_us", "sql.write_self_us", "ladder.write.fs_apply_us", "tmf.commit_wait_us"},
	} {
		sum := 0.0
		for _, name := range chain[1:] {
			sum += shared[name].Value
		}
		if top := shared[chain[0]].Value; math.Abs(sum-top) > 1e-6*top {
			t.Errorf("%v add up to %v, want %s = %v", chain[1:], sum, chain[0], top)
		}
	}

	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, registered as %q", i, w.name, sp.Workloads[i].Name)
		}
		o, err := runWorkload(w, st, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct() {
			t.Errorf("%s: %d of %d operations failed, check: %v", w.name, o.failed, o.attempted, o.checkErr)
		}
		// All five are measured; the gated ones are what BENCHMARK.json
		// registers end to end and what the result line carries.
		reported := map[string]metric{}
		for _, name := range gated {
			reported[name] = o.e2e[name]
		}
		sameMetrics(t, w.name, reported, sp.EndToEnd)
		for _, name := range endToEnd {
			if m, ok := o.e2e[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		for name, m := range o.layers {
			if m.Value < 0 {
				t.Errorf("%s: %s = %v, want >= 0", w.name, name, m.Value)
			}
		}
		for name, v := range shared {
			o.layers[name] = v
		}
		sameMetrics(t, w.name+" traced", o.layers, sp.PerLayer)
	}
	if _, err := tr.write(st.outDir, "trace.json"); err != nil {
		t.Error(err)
	}
}

// TestSameSeedSameOperations: the operation sequence is a function of
// the seed and the client number only.
func TestSameSeedSameOperations(t *testing.T) {
	sequence := func(r runner, seed int64, c int) []opSpec {
		rng := clientRNG(seed, c)
		ops := make([]opSpec, 500)
		for i := range ops {
			ops[i] = r.gen(c, rng)
		}
		return ops
	}
	for _, w := range workloads {
		r, err := w.open(2000, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		a, b, other := sequence(r, 11, 3), sequence(r, 11, 3), sequence(r, 12, 3)
		r.close()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated two different sequences", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 11 and 12 generated the same sequence", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
