// Command benchmark is the repository's wall-clock benchmark: four
// workloads served by an in-process database, five end-to-end metrics
// each, and — in a separate traced run — the per-layer numbers that say
// where a statement's time goes. BENCHMARK.json at the repository root
// registers it; README.md beside this file explains every name.
//
//	benchmark -workload point-read -seed 1 -seconds 20 -trace 0
//	benchmark                      # all four workloads, untraced
//	benchmark -trace 1             # all four, traced, spans to -out/trace.json
//	benchmark -aa 20               # repeatability study (SPREAD.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them in turn)")
		seed    = flag.Int64("seed", 1, "seed of the generated operation sequences")
		seconds = flag.Int("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to -out")
		aa      = flag.Int("aa", 0, "run the untraced benchmark this many times as two interleaved sets and print the spread")
		outDir  = flag.String("out", "benchmark/out", "directory for the span file (and file-backed volumes when /dev/shm is missing)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-aa n]")
		os.Exit(2)
	}
	// One CPU for clients and server alike: see pinToOneCPU. NumCPU then
	// reads 1 and so does GOMAXPROCS.
	pinnedCPU = pinToOneCPU()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *aa > 0 {
		if err := spreadStudy(*aa, *seed, *seconds, *outDir); err != nil {
			fail(err)
		}
		return
	}

	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	ref, err := newReference()
	if err != nil {
		fail(err)
	}
	defer ref.close()
	st := settings{
		seed: *seed, rows: 100000, setups: 9,
		warm: 3 * time.Second, measure: time.Duration(*seconds) * time.Second, windows: 10, ref: ref,
		outDir: *outDir, trace: *trace == 1, scale: 1,
	}
	var tr *tracer
	if st.trace {
		tr = newTracer()
	}
	ok := true
	var outs []*outcome
	for _, w := range run {
		o, err := runWorkload(w, st, tr)
		if err != nil {
			fail(err)
		}
		if !st.trace {
			o.print(st, nil)
		}
		outs = append(outs, o)
		ok = ok && o.correct()
	}
	if st.trace {
		// The ladder and the kernels do not depend on the workload (they
		// build a database of their own), so a traced invocation runs
		// them once, after its last workload, and every workload's result
		// line carries the same values.
		shared := map[string]metric{}
		for _, part := range []func(settings, *tracer) (map[string]metric, error){ladder, kernels} {
			m, err := part(st, tr)
			if err != nil {
				fail(err)
			}
			for name, v := range m {
				shared[name] = v
			}
		}
		path, err := tr.write(st.outDir, "trace.json")
		if err != nil {
			fail(fmt.Errorf("write spans: %w", err))
		}
		fmt.Printf("# ladder and kernels, once for this invocation; %d spans written to %s\n", len(tr.spans), path)
		for _, name := range sortedNames(shared) {
			fmt.Printf("%-34s %14.4f %s\n", name, shared[name].Value, shared[name].Unit)
		}
		for _, o := range outs {
			o.print(st, shared)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// pinnedCPU is the one CPU the process is confined to, -1 when it could
// not be confined.
var pinnedCPU = -1

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// print writes the human-readable lines, then the one-line JSON result
// the benchmark contract reads: the gated end-to-end metrics of an
// untraced run; of a traced one the per-layer metrics, the workload's
// own and the invocation's shared ones.
func (o *outcome) print(st settings, shared map[string]metric) {
	where := "simulated volumes"
	if o.dataDir != "" {
		where = "file-backed volumes under " + o.dataDir
	}
	pinned := "not pinned"
	if pinnedCPU >= 0 {
		pinned = fmt.Sprintf("pinned to CPU %d", pinnedCPU)
	}
	fmt.Printf("# workload %s seed %d: %d s measured in %d windows after %s warm-up, %d rows, %s, GOMAXPROCS %d, %s, %s, machine factor %.4f\n",
		o.workload, st.seed, int(st.measure.Seconds()), st.windows, st.warm, st.rows,
		pinned, runtime.GOMAXPROCS(0), runtime.Version(), where, o.factor)
	for _, name := range endToEnd {
		fmt.Printf("%-34s %14.6g %-5s (as timed %.6g; %d latency samples)\n",
			name, o.e2e[name].Value, o.e2e[name].Unit, o.raw[name].Value, o.samples)
	}
	metrics := map[string]metric{}
	if st.trace {
		for _, name := range sortedNames(o.layers) {
			fmt.Printf("%-34s %14.4f %s\n", name, o.layers[name].Value, o.layers[name].Unit)
			metrics[name] = o.layers[name]
		}
		for name, v := range shared {
			metrics[name] = v
		}
	} else {
		for _, name := range gated {
			metrics[name] = o.e2e[name]
		}
	}
	status := "ok"
	if o.checkErr != nil {
		status = "FAILED: " + o.checkErr.Error()
	}
	fmt.Printf("# output check %s; %d operations attempted, %d failed\n", status, o.attempted, o.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err) // a NaN metric: nothing valid to print
		os.Exit(1)
	}
	fmt.Println(string(line))
}
