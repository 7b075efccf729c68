// Package experiments reproduces every quantitative claim, table, and
// figure of the paper (see DESIGN.md §4 for the index). Each experiment
// builds an isolated simulated network, runs its workload, and reports
// the counted quantities — messages, message bytes, physical I/Os, audit
// bytes — that the paper's claims are stated in.
package experiments

import (
	"fmt"
	"strings"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
)

// Kind is the currency a column is stated in (DESIGN.md §4.1). Label,
// Counted and Modeled columns are exact: testdata/quick.golden pins
// every cell of them and TestExperiments compares them string for
// string. Observed columns are printed and pinned nowhere.
type Kind uint8

const (
	// Label names the row: a configuration, a mode, a fault point.
	Label Kind = iota + 1
	// Counted is something the program counted — messages, bytes, disk
	// transfers — or an exact function of such counts (a ratio, the
	// outcome of a deterministic check).
	Counted
	// Modeled is counted values priced by a fixed cost model
	// (msg.CostModel, disk.CostModel): E7 "est ms", E12 "modeled ms".
	Modeled
	// Observed is anything a scheduler, a timer or a clock can change:
	// elapsed time, rates and percentiles computed from it, and counts
	// that depend on how goroutines interleaved.
	Observed
)

// A Col is one column of a Table: its header and its currency.
type Col struct {
	Name string
	Kind Kind
}

func label(name string) Col    { return Col{name, Label} }
func counted(name string) Col  { return Col{name, Counted} }
func modeled(name string) Col  { return Col{name, Modeled} }
func observed(name string) Col { return Col{name, Observed} }

// A Table is one reproduced result table/figure.
type Table struct {
	ID    string
	Title string
	Claim string // what the paper says
	Cols  []Col
	Rows  [][]string
	Notes []string

	// typed is the experiment's result rows as Go values, for the shape
	// assertions in TestExperiments (set by typed in registry.go).
	typed any
}

// Render formats the table as aligned text. Observed columns carry a
// trailing ~ on their header.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "paper: %s\n", t.Claim)
	headers := make([]string, len(t.Cols))
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		headers[i] = c.Name
		if c.Kind == Observed {
			headers[i] += "~"
		}
		widths[i] = len(headers[i])
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, c)
		}
		sb.WriteByte('\n')
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// rig is a one-node network with data volumes, used by most experiments.
type rig struct {
	c  *cluster.Cluster
	fs *fs.FS
}

func newRig(opts cluster.Options, volumes int) (*rig, error) {
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < volumes; i++ {
		if _, err := c.AddVolume(0, i%3, fmt.Sprintf("$DATA%d", i+1)); err != nil {
			c.Close()
			return nil, err
		}
	}
	return &rig{c: c, fs: c.NewFS(0, 0)}, nil
}

func (r *rig) close() { r.c.Close() }

// empDef builds an EMP file whose records pad to ~recordBytes, on one
// volume. fieldAudit picks the SQL or ENSCRIBE audit format.
func empDef(recordBytes int, fieldAudit bool) *fs.FileDef {
	return &fs.FileDef{
		Name: "EMP",
		Schema: record.MustSchema("EMP", []record.Field{
			{Name: "EMPNO", Type: record.TypeInt, NotNull: true},
			{Name: "NAME", Type: record.TypeString},
			{Name: "SALARY", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: "$DATA1"}},
		FieldAudit: fieldAudit,
	}
}

// loadEmp bulk-loads n EMP rows of ~recordBytes each directly at the DP
// (clustered leaves, flushed to disk) and returns the def.
func loadEmp(r *rig, n, recordBytes int, fieldAudit bool) (*fs.FileDef, error) {
	def := empDef(recordBytes, fieldAudit)
	if err := r.fs.Create(def); err != nil {
		return nil, err
	}
	pad := recordBytes - 60
	if pad < 1 {
		pad = 1
	}
	filler := strings.Repeat("f", pad)
	rows := make([]record.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, record.Row{
			record.Int(int64(i)),
			record.String(fmt.Sprintf("emp-%06d", i)),
			record.Float(float64(i)),
			record.String(filler),
		})
	}
	if err := r.c.DP("$DATA1").BulkLoad("EMP", rows); err != nil {
		return nil, err
	}
	return def, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func u(v uint64) string   { return fmt.Sprintf("%d", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
