package sql

import (
	"fmt"
	"strings"
	"time"

	"nonstopsql/internal/fs"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
)

// NodeActuals is the measured execution of one plan node: the message
// traffic it cost, the work the Disk Processes reported back, and the
// per-message latency distribution. For scan/count/subset nodes the
// numbers come from the operation's own ScanStats (per-conversation
// accounting, exact even with other requesters on the network); for
// requester-side nodes they are network-counter deltas.
type NodeActuals struct {
	Label      string
	Partitions int    // partition conversations that exchanged messages
	Messages   uint64 // request/reply pairs
	Redrives   uint64 // continuation messages beyond each ^FIRST
	Bytes      uint64 // encoded request + reply bytes

	// RowsReturned is what the replies carried to the requester: rows, or
	// for a COUNT node the count. An AGG^FIRST/NEXT node sets Entries: its
	// replies carry per-group partial states, and RowsReturned counts those
	// — one per group per reply block that shipped it, so a partition whose
	// groups fit one block returns each group once however many records
	// and re-drives fed it. EXPLAIN ANALYZE prints it as "entries returned".
	RowsReturned uint64
	Entries      bool
	RowsExamined uint64 // records the DPs visited (server-reported)
	BlocksRead   uint64 // physical reads at the DPs
	CacheHits    uint64 // buffer-pool hits at the DPs
	Affected     int    // records changed (update/delete nodes)

	Wall time.Duration // node wall time
	Lat  obs.Snapshot  // per-message round-trip latency
}

// P50 returns the node's median message latency.
func (n NodeActuals) P50() time.Duration { return n.Lat.Quantile(0.50) }

// P95 returns the node's 95th-percentile message latency.
func (n NodeActuals) P95() time.Duration { return n.Lat.Quantile(0.95) }

// P99 returns the node's 99th-percentile message latency.
func (n NodeActuals) P99() time.Duration { return n.Lat.Quantile(0.99) }

// CacheHitRate returns hits/(hits+misses) at the serving DPs, or 0.
func (n NodeActuals) CacheHitRate() float64 {
	if n.CacheHits+n.BlocksRead == 0 {
		return 0
	}
	return float64(n.CacheHits) / float64(n.CacheHits+n.BlocksRead)
}

// Analyze is one EXPLAIN ANALYZE execution: the annotated plan text,
// the per-node actuals behind it, and the statement's result.
type Analyze struct {
	Plan   string // static plan + per-node "actual:" annotations
	Nodes  []NodeActuals
	Result *Result
	Wall   time.Duration
}

// analyzeState collects per-node actuals while a statement executes.
// A nil *analyzeState disables collection (the normal execution path).
type analyzeState struct {
	nodes []NodeActuals
}

// scanNode records a node measured by its own ScanStats and returns it
// (nil when not collecting) for the caller to qualify.
func (az *analyzeState) scanNode(label string, st fs.ScanStats) *NodeActuals {
	if az == nil {
		return nil
	}
	az.nodes = append(az.nodes, NodeActuals{
		Label:      label,
		Partitions: st.Partitions,
		Messages:   st.Messages,
		Redrives:   st.Redrives,
		Bytes:      st.Bytes,

		RowsReturned: st.Rows,
		RowsExamined: st.Examined,
		BlocksRead:   st.BlocksRead,
		CacheHits:    st.CacheHits,

		Wall: st.Wall,
		Lat:  st.Lat,
	})
	return &az.nodes[len(az.nodes)-1]
}

// netMark is the network's counters at the start of a requester-side
// node (the zero mark when not collecting).
type netMark struct {
	net  *msg.Network
	msgs msg.Stats
	lat  obs.Snapshot
	at   time.Time
}

// mark reads the counters of the network s sends through, for deltaNode.
func (az *analyzeState) mark(s *Session) (m netMark) {
	if az != nil {
		m.net = s.fs.Network()
		m.msgs, m.lat, m.at = m.net.Stats(), m.net.LatencyAll(), time.Now()
	}
	return m
}

// deltaNode records a requester-side node from the network-counter deltas
// since from and returns it (nil when not collecting) for the caller to
// qualify. Exact only when this session is the network's sole requester
// during the node (true in tests and the interactive shell).
func (az *analyzeState) deltaNode(label string, from netMark, rows int) *NodeActuals {
	if az == nil {
		return nil
	}
	after, lat := from.net.Stats(), from.net.LatencyAll()
	lat.Sub(from.lat)
	az.nodes = append(az.nodes, NodeActuals{
		Label:        label,
		Messages:     after.Requests - from.msgs.Requests,
		Bytes:        after.Bytes() - from.msgs.Bytes(),
		RowsReturned: uint64(rows),
		Wall:         time.Since(from.at),
		Lat:          lat,
	})
	return &az.nodes[len(az.nodes)-1]
}

// localNode records a requester-only node (sort, aggregate): no
// messages, just rows in and wall time.
func (az *analyzeState) localNode(label string, rowsIn int, wall time.Duration) {
	if az == nil {
		return
	}
	az.nodes = append(az.nodes, NodeActuals{
		Label:        label,
		RowsReturned: uint64(rowsIn),
		Wall:         wall,
	})
}

// ExplainAnalyze executes the statement and returns the plan annotated
// with per-node actuals.
func (s *Session) ExplainAnalyze(src string) (string, error) {
	a, err := s.ExplainAnalyzeStmt(src)
	if err != nil {
		return "", err
	}
	return a.Plan, nil
}

// ExplainAnalyzeStmt executes the statement, collecting per-plan-node
// actuals: messages, re-drives, rows examined/returned, blocks read,
// cache hit rate, and p50/p95/p99 message latency. SELECT honors the
// session's transaction state exactly as Exec would (browse access when
// none is open); UPDATE/DELETE autocommit when none is open. Like
// EXPLAIN it leaves the plan cache as it found it.
func (s *Session) ExplainAnalyzeStmt(src string) (*Analyze, error) {
	p, err := s.peekOrCompile(src)
	if err != nil {
		return nil, err
	}
	return s.analyze(p, nil)
}

// ExplainAnalyzePrepared executes a prepared statement with the given
// parameter vector, collecting per-node actuals. The static half is
// describe of the plan that runs, given the same arguments (so key
// ranges and probe values show them), annotated with the shared plan
// cache's view of this compilation before the run.
func (s *Session) ExplainAnalyzePrepared(p *Prepared, params ...record.Value) (*Analyze, error) {
	p, err := s.current(p)
	if err != nil {
		return nil, err
	}
	return s.analyze(p, params)
}

func (s *Session) analyze(p *Prepared, params []record.Value) (*Analyze, error) {
	var sb strings.Builder
	if err := s.describe(&sb, p, params); err != nil {
		return nil, err
	}
	az := &analyzeState{}
	start := time.Now()
	res, err := decoded(s.execCompiled(p, params, az))
	if err != nil {
		return nil, err
	}
	a := &Analyze{Nodes: az.nodes, Result: res, Wall: time.Since(start)}
	renderActuals(&sb, a)
	a.Plan = sb.String()
	return a, nil
}

func renderActuals(sb *strings.Builder, a *Analyze) {
	for _, n := range a.Nodes {
		fmt.Fprintf(sb, "actual %s:\n", n.Label)
		if n.Messages > 0 {
			fmt.Fprintf(sb, "  messages=%d re-drives=%d bytes=%d", n.Messages, n.Redrives, n.Bytes)
			if n.Partitions > 0 {
				fmt.Fprintf(sb, " partitions=%d", n.Partitions)
			}
			sb.WriteByte('\n')
		}
		unit := "rows"
		if n.Entries {
			unit = "entries"
		}
		fmt.Fprintf(sb, "  %s returned=%d", unit, n.RowsReturned)
		if n.RowsExamined > 0 {
			fmt.Fprintf(sb, " examined=%d", n.RowsExamined)
		}
		if n.Affected > 0 {
			fmt.Fprintf(sb, " affected=%d", n.Affected)
		}
		if n.BlocksRead+n.CacheHits > 0 {
			fmt.Fprintf(sb, " blocks read=%d cache hit rate=%.2f", n.BlocksRead, n.CacheHitRate())
		}
		sb.WriteByte('\n')
		if n.Lat.Count() > 0 {
			fmt.Fprintf(sb, "  p50=%v p95=%v p99=%v wall=%v\n", n.P50(), n.P95(), n.P99(), n.Wall)
		} else {
			fmt.Fprintf(sb, "  wall=%v\n", n.Wall)
		}
	}
	fmt.Fprintf(sb, "total wall=%v\n", a.Wall)
}
