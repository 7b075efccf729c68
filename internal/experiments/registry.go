package experiments

import "nonstopsql/internal/tmf"

// Sizes selects experiment scale.
type Sizes struct {
	Rows       int // table cardinality
	Txns       int // DebitCredit transactions
	TxnsPerCli int // per-client txns for the concurrent workloads
}

// Quick returns test-sized parameters: the scale testdata/quick.golden
// is recorded at.
func Quick() Sizes { return Sizes{Rows: 2000, Txns: 300, TxnsPerCli: 50} }

// Full returns paper-scale parameters (the Wisconsin relation's classic
// 10 000 rows).
func Full() Sizes { return Sizes{Rows: 10000, Txns: 2000, TxnsPerCli: 200} }

// An Experiment is one reproduced table or figure of DESIGN.md §4.
type Experiment struct {
	ID  string
	run func(Sizes) (*Table, error)
}

// Run runs the experiment at scale s, from transaction id 1: ids are
// varint-encoded into audit records and requests, and a table's byte
// counts must read the same alone (cmd/experiments -only), after any
// other experiment, and on every pass of go test -count=N.
func (e Experiment) Run(s Sizes) (*Table, error) {
	tmf.ResetTxIDs()
	return e.run(s)
}

// Registry lists every experiment in DESIGN.md order. It is the one way
// in: cmd/experiments prints from it and TestExperiments checks each
// entry's exact columns against testdata/quick.golden.
var Registry = []Experiment{
	{"E1", func(s Sizes) (*Table, error) { return typed(E1(s.Rows)) }},
	{"E2", func(s Sizes) (*Table, error) { return typed(E2(s.Rows)) }},
	{"E3", func(s Sizes) (*Table, error) { return typed(E3(s.Rows / 10)) }},
	{"E4", func(s Sizes) (*Table, error) { return typed(E4(s.Rows / 2)) }},
	{"E5", func(s Sizes) (*Table, error) { return typed(E5(s.TxnsPerCli, []int{1, 8, 32})) }},
	{"E6", func(s Sizes) (*Table, error) { return typed(E6(s.Rows)) }},
	{"E7", func(s Sizes) (*Table, error) { return typed(E7(s.Txns)) }},
	{"E8", func(s Sizes) (*Table, error) { return typed(E8(s.Rows/2, []int{8, 32})) }},
	{"E9", func(s Sizes) (*Table, error) { return typed(E9(s.Rows/2, []int{8, 32})) }},
	{"E10", func(s Sizes) (*Table, error) { return typed(E10(s.Rows)) }},
	{"E11", func(Sizes) (*Table, error) { return typed(E11()) }},
	{"E12", func(s Sizes) (*Table, error) { return typed(E12(s.Rows)) }},
	{"E13", func(s Sizes) (*Table, error) { return typed(E13(s.TxnsPerCli)) }},
	{"E14", func(s Sizes) (*Table, error) { return typed(E14(s.TxnsPerCli / 4)) }},
	{"E15", func(s Sizes) (*Table, error) { return typed(E15(s.TxnsPerCli)) }},
	{"E16", func(s Sizes) (*Table, error) { return typed(E16(s.Rows)) }},
	{"E17", func(s Sizes) (*Table, error) { return typed(E17(s.Rows)) }},
	{"F1", func(Sizes) (*Table, error) { return typed(F1()) }},
	{"F2", func(Sizes) (*Table, error) { return typed(F2()) }},
	{"ABL-PUSHDOWN", func(s Sizes) (*Table, error) { return AblationPushdownSelectivity(s.Rows) }},
	{"ABL-SCB", func(s Sizes) (*Table, error) { return AblationSCB(s.Rows) }},
	{"ABL-PAIRS", func(s Sizes) (*Table, error) { return AblationReplicatedPair(s.Txns / 2) }},
}

// typed adapts an experiment function to Experiment.Run, keeping its Go
// result rows on the table for the shape assertions in TestExperiments.
func typed[R any](rows R, t *Table, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	t.typed = rows
	return t, nil
}
