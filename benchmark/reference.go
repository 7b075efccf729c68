package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"time"
)

// The reference is a fixed piece of work, unrelated to the program under
// test, that the benchmark times between the windows of a measured phase.
// Its time says how fast the machine is at that moment, and every timed
// metric is reported at the reference's nominal speed: a window that ran
// while the reference took 1.25x its nominal time has its CPU per
// operation divided by 1.25 and its throughput multiplied by it.
//
// Why: the virtual machines this benchmark runs on share their host, and
// for seconds to minutes at a time everything on them runs 20-40 % slower
// (SPREAD.md shows runs of unchanged code 25 % apart). The slowdown hits
// the workloads and the reference alike, so the ratio is several times
// steadier than the raw time. Three kinds of work are timed, because the
// slowdown is not the same for each and the workloads do all three:
// dependent loads that miss the caches, hashing and sorting in cached
// memory, and system calls with a hand-off between two goroutines.
type reference struct {
	perm []uint32 // one random cycle over 16 MiB: every load misses
	keys []int
	seen map[int]int
	ln   net.Listener
	conn net.Conn // loopback connection to an echo goroutine
	done chan struct{}
}

// nominal is what each part of the reference takes, in microseconds, on
// the class of machine the bounds were measured on while it is
// undisturbed. The values only fix the scale of the reported numbers; a
// comparison of two commits on one machine does not depend on them.
var nominal = [3]float64{33000, 36000, 30000}

const (
	chaseSteps = 200_000
	sortKeys   = 250_000
	echoTrips  = 5_000
)

func newReference() (*reference, error) {
	r := &reference{
		perm: make([]uint32, 1<<22),
		keys: make([]int, sortKeys),
		seen: make(map[int]int, 1<<16),
		done: make(chan struct{}),
	}
	for i := range r.perm {
		r.perm[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(r.perm) - 1; i > 0; i-- { // Sattolo: a single cycle
		j := rng.Intn(i)
		r.perm[i], r.perm[j] = r.perm[j], r.perm[i]
	}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	go func() {
		defer close(r.done)
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo until the other end closes
	}()
	if r.conn, err = net.Dial("tcp", r.ln.Addr().String()); err != nil {
		r.ln.Close()
		<-r.done
		return nil, fmt.Errorf("reference: %w", err)
	}
	return r, nil
}

func (r *reference) close() {
	r.conn.Close()
	r.ln.Close()
	<-r.done
}

// factor times the reference once (about a tenth of a second) and
// returns the machine's slowness: the mean over the three parts of time
// taken over nominal time, 1.0 on an undisturbed machine.
func (r *reference) factor() (float64, error) {
	t0 := time.Now()
	i := uint32(0)
	for k := 0; k < chaseSteps; k++ {
		i = r.perm[i]
	}
	sink += uint64(i)
	t1 := time.Now()

	clear(r.seen)
	x := 12345
	for k := range r.keys {
		x = x*1103515245 + 12345
		r.seen[x&0xffff] += k
		r.keys[k] = x
	}
	slices.Sort(r.keys)
	sink += uint64(len(r.seen) + r.keys[0])
	t2 := time.Now()

	var buf [64]byte
	for k := 0; k < echoTrips; k++ {
		if _, err := r.conn.Write(buf[:]); err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
		if _, err := io.ReadFull(r.conn, buf[:]); err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
	}
	t3 := time.Now()

	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	return (us(t0, t1)/nominal[0] + us(t1, t2)/nominal[1] + us(t2, t3)/nominal[2]) / 3, nil
}
