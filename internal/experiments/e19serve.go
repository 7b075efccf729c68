package experiments

import (
	"fmt"
	"sync"
	"time"

	"nonstopsql"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/obs"
)

// E19 measures the serving path end to end: one nsqld-shaped database
// (a cluster served over TCP with the "$SQL" endpoint) hammered by
// hundreds of concurrent clients sharing a pipelined connection pool.
// Unlike every simulated-transport experiment, the latencies here are
// real socket round trips on the loopback device — the DistNetwork
// bucket of the per-distance histograms fills with measured wall time,
// because each remote conversation enters the message network at an
// ingress processor outside every node.
//
// The claims under test are the transport invariants at scale: requests
// reconcile with replies through the wire, no frame is lost or
// misrouted under heavy pipelining (the effects audit — every update
// lands exactly once — would catch a correlation bug), and wire-level
// frame accounting balances.
type E19Result struct {
	Clients  int
	Requests int
	Elapsed  time.Duration // wall clock over loopback TCP
	TPS      float64
	Client   obs.Snapshot // pool round-trip latency (socket to socket)
	Network  obs.Snapshot // server-side DistNetwork dispatch latency
	Wire     obs.WireStats
}

// E19 runs requestsPerClient autocommit statements from each of 128
// concurrent clients through one shared pool against a TCP-served
// database, then audits effects and accounting.
func E19(requestsPerClient int) (*E19Result, *Table, error) {
	const clients = 128
	db, err := nonstopsql.Open(nonstopsql.Config{
		Listen:       "127.0.0.1:0",
		ServeWorkers: 16,
	})
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()

	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{
		Conns:        8,
		ReplyTimeout: 2 * time.Minute,
	})
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()

	// One row per client: updates never contend on locks, so the
	// measurement is the transport and the engine, not lock waits.
	if _, err := pool.Exec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, hits FLOAT)`); err != nil {
		return nil, nil, err
	}
	for i := 0; i < clients; i++ {
		if _, err := pool.Exec(fmt.Sprintf(`INSERT INTO acct VALUES (%d, 0)`, i)); err != nil {
			return nil, nil, err
		}
	}

	// Measure the hammer phase only.
	db.ResetStats()
	loadWire := pool.Stats()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < requestsPerClient; i++ {
				var err error
				if i%4 == 3 {
					// One read per four requests: reply frames carry rows
					// back through the same pipelined connections.
					_, err = pool.Exec(fmt.Sprintf(`SELECT hits FROM acct WHERE id = %d`, id))
				} else {
					_, err = pool.Exec(fmt.Sprintf(`UPDATE acct SET hits = hits + 1 WHERE id = %d`, id))
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return nil, nil, err
	}

	// Effects audit: every update landed exactly once. A correlation or
	// retry bug on the wire would double-apply or drop increments.
	updates := clients * (requestsPerClient - requestsPerClient/4)
	res, err := pool.Exec(`SELECT SUM(hits) FROM acct`)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Rows) != 1 {
		return nil, nil, fmt.Errorf("E19: SUM returned %d rows", len(res.Rows))
	}
	if got := res.Rows[0][0].AsFloat(); got != float64(updates) {
		return nil, nil, fmt.Errorf("E19: %v hits recorded, want %d: updates lost or duplicated on the wire", got, updates)
	}

	// Accounting audit: the message network reconciles, and every
	// request frame the pool sent came back as exactly one reply frame.
	st := db.Cluster().Net.Stats()
	if st.Requests != st.Replies {
		return nil, nil, fmt.Errorf("E19: %d requests vs %d replies", st.Requests, st.Replies)
	}
	wire := pool.Stats()
	wire.BytesIn -= loadWire.BytesIn
	wire.BytesOut -= loadWire.BytesOut
	wire.FramesIn -= loadWire.FramesIn
	wire.FramesOut -= loadWire.FramesOut
	if wire.FramesIn != wire.FramesOut {
		return nil, nil, fmt.Errorf("E19: frame books don't balance: %d in, %d out", wire.FramesIn, wire.FramesOut)
	}
	if wire.Errors != 0 || wire.Timeouts != 0 || wire.Rejected != 0 {
		return nil, nil, fmt.Errorf("E19: wire trouble under load: %+v", wire)
	}

	requests := clients * requestsPerClient
	r := &E19Result{
		Clients:  clients,
		Requests: requests,
		Elapsed:  elapsed,
		TPS:      float64(requests) / elapsed.Seconds(),
		Client:   pool.Latency(),
		Network:  db.Cluster().Net.Latency(msg.DistNetwork),
		Wire:     wire,
	}

	table := &Table{
		ID:    "E19",
		Title: "TCP serving path: concurrent pooled clients against one served cluster (wall clock)",
		Claim: "the wire transport preserves the message contract — request/reply reconciliation, exactly-once effects — while feeding the network latency bucket with measured round trips",
		Cols: []Col{
			label("clients"), label("requests"), observed("elapsed"), observed("TPS"),
			observed("rtt p50"), observed("rtt p95"), observed("rtt p99"),
			observed("dispatch p50"), observed("dispatch p95"), observed("dispatch p99"),
			observed("frames"), observed("wire KB"),
		},
		Rows: [][]string{{
			d(r.Clients), d(r.Requests), r.Elapsed.Round(time.Millisecond).String(), f1(r.TPS),
			r.Client.Quantile(0.50).Round(time.Microsecond).String(),
			r.Client.Quantile(0.95).Round(time.Microsecond).String(),
			r.Client.Quantile(0.99).Round(time.Microsecond).String(),
			r.Network.Quantile(0.50).Round(time.Microsecond).String(),
			r.Network.Quantile(0.95).Round(time.Microsecond).String(),
			r.Network.Quantile(0.99).Round(time.Microsecond).String(),
			u(r.Wire.Frames()), u(r.Wire.Bytes() / 1024),
		}},
		Notes: []string{
			fmt.Sprintf("%d goroutines share one %d-connection pipelined pool; correlation IDs match completion-order replies", clients, 8),
			"rtt is the client-side socket round trip; dispatch is the server-side ingress Send (queue wait + execution)",
			fmt.Sprintf("effects audited: SUM(hits) = %d updates exactly — no increment lost or duplicated on the wire", updates),
		},
	}
	return r, table, nil
}
