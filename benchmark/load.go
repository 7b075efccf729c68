package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// settings is one run's sizing. The defaults are the benchmark; the
// smoke test shrinks them.
type settings struct {
	seed    int64
	rows    int
	setups  int           // times the database is built; setup_s is their median
	warm    time.Duration // unrecorded closed loop before the measured phase
	measure time.Duration
	windows int        // equal slices of the measured phase, the reference timed around each
	ref     *reference // the machine-speed reference every timed metric is scaled by
	outDir  string
	trace   bool
	scale   float64 // shrinks the ladder's and kernels' budgets (1 = full)
}

// window is what one closed-loop window measured. Every operation that
// started in it also finished in it, so the counts, the time and the
// CPU cover exactly the same work.
type window struct {
	attempted, failed int64
	firstErr          error
	completed         int64         // operations that returned the right result
	elapsed, cpu      time.Duration // from the start until the last client's last operation returned
	lat               []int64       // latencies (ns) of the completed operations
}

// opSpan is one traced workload operation, in ns since the phase began.
type opSpan struct{ start, end int64 }

// maxOpSpans caps the per-client operation spans a traced run keeps, so
// the span file stays small whatever the throughput.
const maxOpSpans = 2000

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientRNG is the random stream of one logical client: a function of
// the run's seed and the client's number, nothing else.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(c)))
}

// closedLoop runs every logical client as a goroutine that issues its
// next operation only when the previous one has returned, until d has
// passed; each client then finishes the operation it is in. spans, when
// not nil, collects each client's first operations, timed from origin.
func closedLoop(r runner, rngs []*rand.Rand, d time.Duration, origin time.Time, spans [][]opSpan) window {
	outs := make([]window, len(rngs))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for c := range rngs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for t0 := time.Now(); t0.Sub(start) < d; t0 = time.Now() {
				err := r.do(c, r.gen(c, rngs[c]))
				t1 := time.Now()
				out.attempted++
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
					continue
				}
				out.completed++
				out.lat = append(out.lat, int64(t1.Sub(t0)))
				if spans != nil && len(spans[c]) < maxOpSpans {
					spans[c] = append(spans[c], opSpan{int64(t0.Sub(origin)), int64(t1.Sub(origin))})
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for c := range outs {
		out := &outs[c]
		w.attempted += out.attempted
		w.failed += out.failed
		w.completed += out.completed
		if w.firstErr == nil {
			w.firstErr = out.firstErr
		}
		w.lat = append(w.lat, out.lat...)
	}
	return w
}

// percentile returns the q-quantile (nearest rank) of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// A metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the five metrics every workload measures and prints, in
// print order. gated are the ones BENCHMARK.json registers end to end,
// the only ones an untraced run's result line carries; the others were
// demoted by the spread study (SPREAD.md) and gate nothing.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "lat_p50_us", "lat_p95_us", "cpu_us_per_op"}
	gated    = []string{"setup_s", "ops_per_s", "cpu_us_per_op"}
)

// measured is what one run's timed parts produced, before scaling.
type measured struct {
	setup       []float64 // seconds per build
	setupFactor float64   // the reference around the builds
	wins        []window
	factors     []float64 // the reference before each window and after the last: len(wins)+1
}

// windowFactor is the machine's slowness while window i ran: the mean of
// the reference timed just before it and just after.
func (m *measured) windowFactor(i int) float64 { return (m.factors[i] + m.factors[i+1]) / 2 }

// endToEndMetrics reduces a run to its five numbers. With scaled set,
// every time is divided by the reference factor of the moment it was
// taken in (rates multiplied), which is what the benchmark reports;
// without, they are the times as the clock gave them.
//
// ops_per_s and cpu_us_per_op are the median over the windows, which a
// disturbance shorter than half the run cannot move. The percentiles are
// taken over every operation of the run, each latency scaled by its own
// window's factor.
func (m *measured) endToEndMetrics(scaled bool) map[string]metric {
	factor := func(f float64) float64 {
		if scaled {
			return f
		}
		return 1
	}
	var rate, cpu, lat []float64
	for i := range m.wins {
		w, f := &m.wins[i], factor(m.windowFactor(i))
		n := float64(max(w.completed, 1))
		rate = append(rate, n/w.elapsed.Seconds()*f)
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/n/f)
		for _, ns := range w.lat {
			lat = append(lat, float64(ns)/1e3/f)
		}
	}
	slices.Sort(lat)
	return map[string]metric{
		"setup_s":       {median(m.setup) / factor(m.setupFactor), "s"},
		"ops_per_s":     {median(rate), "1/s"},
		"lat_p50_us":    {percentile(lat, 0.50), "us"},
		"lat_p95_us":    {percentile(lat, 0.95), "us"},
		"cpu_us_per_op": {median(cpu), "us"},
	}
}

// outcome is one workload run, ready to print.
type outcome struct {
	workload          string
	attempted, failed int64
	samples           int
	checkErr          error // first failed operation or the final check
	e2e               map[string]metric
	raw               map[string]metric // the same five, not scaled by the reference
	layers            map[string]metric // traced runs only
	dataDir           string
	factor            float64 // median reference factor over the measured phase
}

func (o *outcome) correct() bool { return o.checkErr == nil && o.failed == 0 }

// runWorkload builds the workload's database (settings.setups times,
// keeping the last), warms it, runs the measured closed loop window by
// window with the reference timed in between, and checks the outputs. A
// traced run also brackets the measured phase with counter snapshots
// and records spans.
func runWorkload(w workload, st settings, tr *tracer) (*outcome, error) {
	var (
		m   measured
		r   runner
		err error
	)
	calib := calibrate()
	before, err := st.ref.factor()
	if err != nil {
		return nil, err
	}
	for i := 0; i < st.setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // every build starts from the same heap, not the last build's garbage
		sp := tr.begin(w.name+".setup", i, -1)
		t0 := time.Now()
		if r, err = w.open(st.rows, st.outDir); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		tr.end(sp)
	}
	defer r.close()
	after, err := st.ref.factor()
	if err != nil {
		return nil, err
	}
	m.setupFactor = (before + after) / 2

	rngs := make([]*rand.Rand, w.clients)
	for c := range rngs {
		rngs[c] = clientRNG(st.seed, c)
	}
	sp := tr.begin(w.name+".warm", 0, -1)
	warm := closedLoop(r, rngs, st.warm, time.Time{}, nil)
	tr.end(sp)
	runtime.GC()

	var (
		c0, c1 counters
		spans  [][]opSpan
	)
	if st.trace {
		c0 = snapshot(r.sys())
		spans = make([][]opSpan, w.clients)
	}
	sp = tr.begin(w.name+".measure", 0, -1)
	origin := time.Now()
	f, err := st.ref.factor()
	if err != nil {
		return nil, err
	}
	m.factors = append(m.factors, f)
	for i := 0; i < st.windows; i++ {
		m.wins = append(m.wins, closedLoop(r, rngs, st.measure/time.Duration(st.windows), origin, spans))
		if f, err = st.ref.factor(); err != nil {
			return nil, err
		}
		m.factors = append(m.factors, f)
	}
	tr.end(sp)
	tr.addOps(w.name+".op", sp, spans)
	if st.trace {
		c1 = snapshot(r.sys()) // nothing is in flight: the deltas cover exactly the completed operations
	}

	o := &outcome{
		workload:  w.name,
		attempted: warm.attempted,
		failed:    warm.failed,
		checkErr:  warm.firstErr,
		e2e:       m.endToEndMetrics(true),
		raw:       m.endToEndMetrics(false),
		dataDir:   r.sys().dataDir,
		factor:    median(m.factors),
	}
	var completed int64
	for i := range m.wins {
		win := &m.wins[i]
		o.attempted += win.attempted
		o.failed += win.failed
		o.samples += len(win.lat)
		completed += win.completed
		if o.checkErr == nil {
			o.checkErr = win.firstErr
		}
	}
	if o.checkErr == nil {
		o.checkErr = r.check()
	}
	if st.trace {
		o.layers = layerCounters(c0, c1, completed)
		o.layers["runtime.calib_ns"] = metric{median([]float64{calib, calibrate()}), "ns"}
		o.layers["machine.factor"] = metric{o.factor, "ratio"}
		for _, name := range endToEnd {
			o.layers["traced."+name] = o.e2e[name]
		}
	}
	return o, nil
}
