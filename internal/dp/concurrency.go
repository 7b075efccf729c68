package dp

import (
	"sync"
	"time"
)

// concMeter measures how much intra-DP concurrency the process group
// actually achieves: the time integral of (requests in service minus
// requests blocked on a page latch), taken over the time at least one
// request was in service. The ratio busy/active is the effective
// concurrency C_eff — exactly 1 with one worker, approaching the
// worker count when handlers overlap on disjoint pages. E13 uses it to
// model DebitCredit TPS as a function of DPWorkers, independent of the
// host's scheduler and core count (the handlers overlap in blocking —
// commit waits, latch stalls — even on a single core).
//
// It doubles as the btree.Waiter wired into the DP's latch table:
// latch-wait episodes are subtracted so serialization behind a hot
// page does not masquerade as useful parallelism.
type concMeter struct {
	mu       sync.Mutex
	lastT    time.Time
	inFlight int
	waiting  int
	maxIn    int
	busy     time.Duration // ∫ max(inFlight − waiting, 0) dt while inFlight > 0
	active   time.Duration // ∫ dt while inFlight > 0
}

// advance accrues the integrals up to now. Callers hold mu. A time read
// before another caller's advance took the lock is already accrued.
func (m *concMeter) advance(now time.Time) {
	if now.Before(m.lastT) {
		return
	}
	if m.inFlight > 0 && !m.lastT.IsZero() {
		dt := now.Sub(m.lastT)
		m.active += dt
		if eff := m.inFlight - m.waiting; eff > 0 {
			m.busy += dt * time.Duration(eff)
		}
	}
	m.lastT = now
}

// enter counts a request into service and returns the time it read, so
// the request's service timer starts from the same clock read.
func (m *concMeter) enter() time.Time {
	m.mu.Lock()
	now := time.Now()
	m.advance(now)
	m.inFlight++
	if m.inFlight > m.maxIn {
		m.maxIn = m.inFlight
	}
	m.mu.Unlock()
	return now
}

// exit counts a request out of service at now, the service timer's
// closing read.
func (m *concMeter) exit(now time.Time) {
	m.mu.Lock()
	m.advance(now)
	m.inFlight--
	m.mu.Unlock()
}

// LatchWaitStart/End implement btree.Waiter.
func (m *concMeter) LatchWaitStart() {
	m.mu.Lock()
	m.advance(time.Now())
	m.waiting++
	m.mu.Unlock()
}

func (m *concMeter) LatchWaitEnd() {
	m.mu.Lock()
	m.advance(time.Now())
	m.waiting--
	m.mu.Unlock()
}

// snapshot returns (effective concurrency, in-service high-water mark).
func (m *concMeter) snapshot() (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(time.Now())
	eff := 0.0
	if m.active > 0 {
		eff = float64(m.busy) / float64(m.active)
	}
	return eff, m.maxIn
}

func (m *concMeter) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastT = time.Now()
	m.busy, m.active = 0, 0
	m.maxIn = m.inFlight
}
