package sql_test

import (
	"strings"
	"testing"

	"nonstopsql/internal/record"
)

// staticHalf returns the plan text of an EXPLAIN or EXPLAIN ANALYZE
// without the actuals and without the plan-cache annotation.
func staticHalf(plan string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(plan, "\n") {
		if strings.HasPrefix(line, "actual ") || strings.HasPrefix(line, "total wall=") {
			break
		}
		if !strings.HasPrefix(line, "plan: cached") {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// claimedNodes reads a static plan the way an operator would and lists
// the EXPLAIN ANALYZE node labels (as substrings) that plan promises, in
// order: one per access that exchanges messages.
func claimedNodes(static string) []string {
	var want []string
	lines := strings.Split(static, "\n")
	batched := strings.Contains(static, "PROBE^BLOCK")
	inner := false
	for _, line := range lines {
		table := ""
		if i := strings.Index(line, "access "); i >= 0 {
			table = strings.SplitN(line[i+len("access "):], ":", 2)[0]
		}
		switch {
		case strings.HasPrefix(line, "  inner ("):
			inner = true
		case inner && strings.Contains(line, "access "):
			inner = false
			if batched {
				want = append(want, "batched join probes "+table)
			} else {
				want = append(want, "inner probes "+table+" (one conversation per outer row)")
			}
		case strings.Contains(line, ": none ("):
			// No access: no node.
		case strings.Contains(line, "] via READ"):
			want = append(want, "read "+table+" (READ)")
		case strings.Contains(line, "] via UPDATE^KEY"):
			want = append(want, "update "+table+" (UPDATE^KEY)")
		case strings.Contains(line, "] via DELETE^KEY"):
			want = append(want, "delete "+table+" (DELETE^KEY)")
		case strings.Contains(line, "via GET^FIRST/NEXT^VSBB"):
			want = append(want, "scan "+table+" (VSBB)")
		case strings.Contains(line, "via GET^FIRST/NEXT^RSBB"):
			want = append(want, "scan "+table+" (RSBB)")
		case strings.Contains(line, ": index probe ("):
			want = append(want, "index probe "+table+".")
		case strings.Contains(line, "via COUNT^FIRST/NEXT"):
			want = append(want, "count "+table+" (COUNT^FIRST/NEXT)")
		case strings.Contains(line, "via AGG^FIRST/NEXT"):
			want = append(want, "partial aggregation "+table+" (AGG^FIRST/NEXT)")
		case strings.Contains(line, "UPDATE^SUBSET^FIRST/NEXT to each partition"):
			want = append(want, "UPDATE^SUBSET^FIRST/NEXT pushdown")
		case strings.Contains(line, "DELETE^SUBSET^FIRST/NEXT to each partition"):
			want = append(want, "DELETE^SUBSET^FIRST/NEXT pushdown")
		case strings.Contains(line, "requester-side: index probe + per-record"):
			verb := strings.Fields(line[strings.Index(line, "per-record ")+len("per-record "):])[0]
			want = append(want, "index probe ", verb+" requester-side (index maintenance)")
		case strings.Contains(line, "requester-side: scan (VSBB, exclusive) + per-record"):
			verb := strings.Fields(line[strings.Index(line, "per-record ")+len("per-record "):])[0]
			want = append(want, verb+" requester-side (scan + index maintenance)")
		}
	}
	return want
}

// TestExplainIsThePlan holds EXPLAIN to what executes. For every
// statement of the differential corpora plus the cases where the old
// mirror planner had drifted, under pushdown on and off: the access path,
// interface, pushed predicate and projection EXPLAIN prints are the ones
// EXPLAIN ANALYZE's static half prints for the same arguments; the nodes
// that half promises are the nodes that ran; and the network saw the
// messages the nodes report. EXPLAIN of text with markers must not name a
// path at all.
func TestExplainIsThePlan(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)
	setupEmp(t, d, 30)

	type stmt struct {
		text string
		args []record.Value
	}
	var corpus []stmt
	for _, q := range matrixQueries() {
		corpus = append(corpus, stmt{text: q})
	}
	for _, c := range matrixParamCases {
		corpus = append(corpus, stmt{text: c.adhoc}, stmt{c.prep, c.args})
	}
	for _, c := range pointReadCases {
		corpus = append(corpus, stmt{text: c.adhoc}, stmt{c.prep, c.args}, stmt{text: c.rng})
	}
	const havingCase = "SELECT dept, COUNT(DISTINCT name) FROM emp GROUP BY dept HAVING MAX(salary) > 0"
	const limit0Case = "SELECT name FROM emp LIMIT 0"
	corpus = append(corpus,
		stmt{text: havingCase},
		stmt{text: limit0Case},
		stmt{"SELECT name FROM emp WHERE empno = ?", []record.Value{record.Int(7)}},
		// The matrix's writes, last: they change M.
		stmt{"UPDATE m SET bonus = bonus + ? WHERE grade = ? AND pay > ?",
			[]record.Value{record.Int(10), record.Int(1), record.Float(80)}},
		stmt{"DELETE FROM m WHERE id >= ? AND id < ?", []record.Value{record.Int(170), record.Int(175)}},
		stmt{text: "DELETE FROM innr WHERE label = 'L3'"},
		stmt{text: "UPDATE innr SET label = 'L0' WHERE wt = 5"},
		// Keyed writes: one request each, or none for a NULL key value;
		// INNR's index keeps a keyed DELETE in the requester.
		stmt{"UPDATE m SET bonus = bonus + ? WHERE id = ? AND pay > ?",
			[]record.Value{record.Int(1), record.Int(42), record.Float(10)}},
		stmt{text: "UPDATE m SET pay = pay + 1 WHERE id = 44"},
		stmt{"UPDATE m SET pay = pay + 1 WHERE id = ?", []record.Value{record.Null}},
		stmt{"DELETE FROM m WHERE id = ?", []record.Value{record.Int(43)}},
		stmt{text: "UPDATE ck SET v = 'w' WHERE b = 3 AND a = 2"},
		stmt{text: "DELETE FROM innr WHERE k = 3"},
	)

	replyBytes := func(q string) uint64 {
		before := d.c.Net.Stats().ReplyBytes
		d.exec(t, q)
		return d.c.Net.Stats().ReplyBytes - before
	}

	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		for _, c := range corpus {
			explained, err := d.s.Explain(c.text)
			if err != nil {
				t.Fatalf("pushdown=%v: EXPLAIN %q: %v", push, c.text, err)
			}
			p, err := d.s.Prepare(c.text)
			if err != nil {
				t.Fatal(err)
			}
			net0 := d.c.Net.Stats()
			a, err := d.s.ExplainAnalyzePrepared(p, c.args...)
			if err != nil {
				t.Fatalf("pushdown=%v: EXPLAIN ANALYZE %q: %v", push, c.text, err)
			}
			requests := d.c.Net.Stats().Requests - net0.Requests
			ran := staticHalf(a.Plan)

			if len(c.args) == 0 {
				if got := staticHalf(explained); got != ran {
					t.Errorf("pushdown=%v: %q: EXPLAIN is not the plan that ran\nEXPLAIN:\n%s\nran:\n%s", push, c.text, got, ran)
				}
			} else {
				// The values decide the path: each access the text alone
				// describes is either deferred to them or exactly what ran.
				for _, line := range strings.Split(explained, "\n") {
					names := strings.Contains(line, "access ") || strings.Contains(line, "requester-side:") ||
						strings.Contains(line, "^SUBSET^FIRST/NEXT")
					if names && !strings.Contains(line, "chosen when the values of") && !strings.Contains(ran, line+"\n") {
						t.Errorf("pushdown=%v: %q: EXPLAIN without arguments prints an access that did not run: %q\nran:\n%s", push, c.text, line, ran)
					}
				}
			}

			// A join's inner access waits for the outer row's values the way a
			// marker waits for its argument (every join here compares a
			// column of each table): no stand-in range or probe value.
			if _, inner, isJoin := strings.Cut(ran, "  inner ("); isJoin {
				if line := strings.SplitN(inner, "\n", 3)[1]; !strings.Contains(line, "chosen when the values of") {
					t.Errorf("pushdown=%v: %q: the inner access prints a path before any outer row is read: %q", push, c.text, line)
				}
			}

			// The nodes the static half promises are the nodes that ran.
			var got []string
			var nodeMsgs uint64
			for _, n := range a.Nodes {
				nodeMsgs += n.Messages
				if n.Label != "aggregate" && n.Label != "sort+project" {
					got = append(got, n.Label)
				}
			}
			want := claimedNodes(ran)
			if len(got) != len(want) {
				t.Errorf("pushdown=%v: %q: plan promises nodes %q, ran %q\n%s", push, c.text, want, got, ran)
			} else {
				for i := range want {
					if !strings.Contains(got[i], want[i]) {
						t.Errorf("pushdown=%v: %q: node %d is %q, plan promises %q\n%s", push, c.text, i, got[i], want[i], ran)
					}
				}
			}

			// Message level. A SELECT outside a transaction sends nothing
			// its nodes do not count (writes share the wire with commit).
			if strings.HasPrefix(c.text, "SELECT") && nodeMsgs != requests {
				t.Errorf("pushdown=%v: %q: nodes count %d messages, the network %d", push, c.text, nodeMsgs, requests)
			}
			switch c.text {
			case limit0Case:
				if requests != 0 || !strings.Contains(ran, "access EMP: none") {
					t.Errorf("pushdown=%v: LIMIT 0 cost %d messages under plan:\n%s", push, requests, ran)
				}
			case havingCase:
				// Reply width: the statement's replies are as wide as a scan
				// shipping exactly the projection EXPLAIN prints.
				const marker = "projection at Disk Process: "
				i := strings.Index(ran, marker)
				if i < 0 {
					t.Fatalf("pushdown=%v: HAVING case prints no projection:\n%s", push, ran)
				}
				proj := strings.SplitN(ran[i+len(marker):], "\n", 2)[0]
				if got, want := replyBytes(havingCase), replyBytes("SELECT "+proj+" FROM emp"); got != want {
					t.Errorf("pushdown=%v: HAVING case moved %d reply bytes, its printed projection (%s) moves %d", push, got, proj, want)
				}
			}
		}
	}
	d.s.SetPushdown(true)
}

// TestExplainIsCounterNeutral pins EXPLAIN and EXPLAIN ANALYZE of text as
// reads of the shared plan cache: whether or not the text is cached, no
// counter moves and nothing is inserted.
func TestExplainIsCounterNeutral(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 10)
	const cached, uncached = "SELECT name FROM emp WHERE empno = 3", "SELECT name FROM emp WHERE empno = 4"
	d.exec(t, cached)
	before := d.cat.Plans().Stats()
	for _, q := range []string{cached, uncached} {
		if _, err := d.s.Explain(q); err != nil {
			t.Fatal(err)
		}
		if _, err := d.s.ExplainAnalyze(q); err != nil {
			t.Fatal(err)
		}
	}
	if after := d.cat.Plans().Stats(); after != before {
		t.Errorf("EXPLAIN moved the plan cache: %+v -> %+v", before, after)
	}
}
