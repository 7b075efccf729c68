package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// floors are the smallest bound each metric may be given however quiet
// a study comes out: below them two sets of runs of the same code on
// this class of machine have been seen to disagree.
var floors = map[string]float64{
	"ops_per_s": 0.05, "lat_p50_us": 0.08, "lat_p95_us": 0.10, "cpu_us_per_op": 0.08, "setup_s": 0.15,
}

// A metric that needs more than demoteAbove on any workload, or whose
// bound (three times its widest quartile distance) would pass maxBound,
// the most a bound may be, is too noisy to gate on and is reported by
// traced runs only. setup_s is the exception: the benchmark contract
// requires it end to end.
const (
	demoteAbove = 0.15
	maxBound    = 0.25
)

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) does (the "exclusive"
// method), which is what the benchmark's acceptance rule is written in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

var (
	factorRE = regexp.MustCompile(`machine factor ([0-9.]+)`)
	timedRE  = regexp.MustCompile(`as timed ([0-9.eE+-]+);`)
)

// spreadStudy runs the whole untraced benchmark n times, each workload
// in a process of its own with a fresh seed, and prints — as the
// markdown committed in SPREAD.md — how far runs of the same code
// disagree. Odd and even repetitions form two interleaved sets (A B A
// B …): the slow drift of a shared machine shows up as a difference
// between the sets' medians, run-to-run noise as the quartile distance.
func spreadStudy(n int, seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}   // as reported: scaled by the reference
	timed := map[key][]float64{}    // the same runs as the clock gave them
	speeds := map[string][]string{} // per workload: each repetition's median reference factor
	start := time.Now()
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("repetition %d of %s: %w", i, w.name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct{ Correct bool }
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("repetition %d of %s: %w", i, w.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("repetition %d of %s: output check failed", i, w.name)
			}
			// The result line carries the gated metrics only; the study
			// wants all five, so it reads the lines printed for people.
			got, raw := map[string]float64{}, map[string]float64{}
			for _, line := range lines {
				if f := bytes.Fields(line); len(f) >= 2 {
					if v, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
						got[string(f[0])] = v
						if m := timedRE.FindSubmatch(line); m != nil {
							raw[string(f[0])], _ = strconv.ParseFloat(string(m[1]), 64)
						}
					}
				}
			}
			for _, m := range endToEnd {
				v, ok := got[m]
				if !ok {
					return fmt.Errorf("repetition %d of %s: no %s in the output", i, w.name, m)
				}
				values[key{w.name, m}] = append(values[key{w.name, m}], v)
				timed[key{w.name, m}] = append(timed[key{w.name, m}], raw[m])
			}
			speed := "?"
			if m := factorRE.FindSubmatch(lines[0]); m != nil {
				speed = string(m[1])
			}
			speeds[w.name] = append(speeds[w.name], speed)
			fmt.Fprintf(os.Stderr, "repetition %d/%d %s done (%s elapsed)\n", i+1, n, w.name, time.Since(start).Round(time.Second))
		}
	}

	fmt.Printf("# Spread of %d repetitions of the same code\n\n", n)
	fmt.Printf("`benchmark -aa %d -seed %d -seconds %d`, %s, one CPU (GOMAXPROCS %d), %s wall time. ",
		n, seed, seconds, runtime.Version(), runtime.GOMAXPROCS(0), time.Since(start).Round(time.Second))
	fmt.Printf("Repetition i used seed %d+i; even repetitions are set A, odd ones set B.\n\n", seed)
	fmt.Println("`IQR/med` is the distance between the first and third quartile of all repetitions over their median,")
	fmt.Println("`as timed` the same for the same runs before they were scaled by the reference: the difference is")
	fmt.Println("what the reference buys. `worst half` is the largest `IQR/med` inside one half of the repetitions")
	fmt.Println("(set A, set B, the first half in time, the second half): the benchmark's acceptance test takes the")
	fmt.Println("spread of ten runs. `A/B` is |median A − median B| over the median.")
	fmt.Println()
	fmt.Println("`needs` is the issue's rule, max(floor, 2 × A/B, IQR/med) rounded up to a whole percent. A metric that")
	fmt.Printf("needs more than %.0f%% on any workload is demoted to the traced run's per-layer metrics; `setup_s`, which\n", 100*demoteAbove)
	fmt.Println("the benchmark contract requires end to end and exempts from its spread test, stays. `bound` is three")
	fmt.Println("times the larger of `IQR/med` and `worst half`, and at least `needs`: the contract asks for a spread")
	fmt.Printf("below a third of the bound. A bound may be at most %.2f; a metric that would need more is demoted too.\n", maxBound)
	fmt.Println()
	fmt.Println("| workload | metric | median | Q1 | Q3 | IQR/med | as timed | worst half | A/B | needs | bound |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	need, bound := map[string]float64{}, map[string]float64{}
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := values[key{w.name, m}]
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			q1, med, q3 := quartiles(v)
			iqr := (q3 - q1) / med
			t1, tmed, t3 := quartiles(timed[key{w.name, m}])
			disagree, worst := 0.0, 0.0
			if len(b) > 0 {
				disagree = math.Abs(median(a)-median(b)) / med
			}
			if len(v) >= 8 { // quartiles of fewer than four values say nothing
				for _, half := range [][]float64{a, b, v[:len(v)/2], v[len(v)/2:]} {
					h1, hmed, h3 := quartiles(half)
					worst = max(worst, (h3-h1)/hmed)
				}
			}
			percent := func(x float64) float64 { return math.Ceil(100*x-1e-9) / 100 }
			n := percent(max(floors[m], 2*disagree, iqr))
			bd := max(n, percent(3*max(iqr, worst)))
			need[m], bound[m] = max(need[m], n), max(bound[m], bd)
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %.0f%% |\n",
				w.name, m, med, q1, q3, 100*iqr, 100*(t3-t1)/tmed, 100*worst, 100*disagree, 100*n, 100*bd)
		}
	}
	fmt.Println()
	fmt.Println("This study's verdict:")
	fmt.Println()
	fmt.Println("| metric | needs | bound | |")
	fmt.Println("|---|---:|---:|---|")
	for _, m := range endToEnd {
		verdict := ""
		switch {
		case m == "setup_s":
			verdict = "kept: required end to end"
		case need[m] > demoteAbove:
			verdict = fmt.Sprintf("demoted: needs more than %.0f%%", 100*demoteAbove)
		case bound[m] > maxBound:
			verdict = fmt.Sprintf("demoted: its bound would pass %.2f", maxBound)
		}
		fmt.Printf("| %s | %.0f%% | %.2f | %s |\n", m, 100*need[m], min(bound[m], maxBound), verdict)
	}

	fmt.Println()
	fmt.Println("## Every repetition")
	fmt.Println()
	fmt.Println("`factor` is the run's median reading of the reference over its measured phase: how slow the machine")
	fmt.Println("was (1.0 = the reference's nominal speed). Each value is followed by the value as timed.")
	for _, w := range workloads {
		fmt.Printf("\n| %s | factor |", w.name)
		for _, m := range endToEnd {
			fmt.Printf(" %s |", m)
		}
		fmt.Print("\n|---:|---:|")
		for range endToEnd {
			fmt.Print("---:|")
		}
		fmt.Println()
		for i := 0; i < n; i++ {
			fmt.Printf("| %d%c | %s |", i, "AB"[i%2], speeds[w.name][i])
			for _, m := range endToEnd {
				fmt.Printf(" %.5g (%.5g) |", values[key{w.name, m}][i], timed[key{w.name, m}][i])
			}
			fmt.Println()
		}
	}
	return nil
}
