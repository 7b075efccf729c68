package sql

import (
	"fmt"
	"strings"

	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
)

// describer is a compiled plan EXPLAIN can print: SELECT, UPDATE, DELETE.
// describe makes the same value-dependent decisions run makes — through
// the same tableQuery.access — and prints them instead of fetching.
type describer interface {
	describe(sb *strings.Builder, params []record.Value) error
}

// Explain compiles a statement and describes the execution plan the
// paper's query compiler would produce — which single-variable queries
// the executor will issue, each access path (a READ, UPDATE^KEY or
// DELETE^KEY by unique key, a primary-key range, an index probe, or a
// scan), the FS-DP interface chosen (VSBB vs RSBB), and what travels to
// the Disk Process (pushed
// predicate, projection, update expressions) vs what stays in the
// requester (residual filters, sorts, aggregation). Text that still
// holds parameter markers has no values to choose a path from: those
// choices print as made when the values are known (EXPLAIN ANALYZE of a
// prepared statement has them).
func (s *Session) Explain(src string) (string, error) {
	p, err := s.peekOrCompile(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := s.describe(&sb, p, nil); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// peekOrCompile returns the cached compilation of src, or compiles one
// without caching it. EXPLAIN is a read: either way no plan-cache counter
// and no LRU position moves.
func (s *Session) peekOrCompile(src string) (*Prepared, error) {
	key := planKey(src, s.pushdown)
	version := s.cat.Version()
	if p, ok := s.cat.plans.peek(key, version); ok {
		return p, nil
	}
	return s.compile(src, key, version)
}

// describe prints p's plan for params, and — when the shared plan cache
// holds a current compilation of this text, so executions skip
// parse/bind/plan entirely — says so.
func (s *Session) describe(sb *strings.Builder, p *Prepared, params []record.Value) error {
	d, ok := p.plan.(describer)
	if !ok {
		return fmt.Errorf("sql: EXPLAIN supports SELECT, UPDATE, DELETE")
	}
	if err := d.describe(sb, params); err != nil {
		return err
	}
	if cp, ok := s.cat.plans.peek(p.key, s.cat.Version()); ok {
		fmt.Fprintf(sb, "plan: cached (hits=%d)\n", cp.Hits())
	}
	return nil
}

// describe prints the access. A pending access names what is decided
// and says that the rest waits for values, rather than print a path the
// execution may not take.
func (a *access) describe(sb *strings.Builder, in string) {
	waits := ""
	if a.pending {
		waits = fmt.Sprintf("chosen when the values of %s are known", a.pred)
	}
	name := a.def.Name
	switch a.op {
	case opUpdate, opDelete:
		verb := a.op.verb()
		if a.requesterSide {
			how := "scan (VSBB, exclusive)"
			if a.via == viaProbe {
				how = "index probe"
			} else if waits != "" {
				how = "index probe or scan (VSBB, exclusive), " + waits + ","
			}
			fmt.Fprintf(sb, "%srequester-side: %s + per-record %s with index maintenance\n", in, how, verb)
			if a.op == opUpdate {
				fmt.Fprintf(sb, "%sreason: SET targets an indexed or primary-key column\n", in)
			}
			return
		}
		switch {
		case waits != "" && a.unique != nil:
			fmt.Fprintf(sb, "%saccess %s: unique key (%s) via %s, or nothing for a NULL key value: %s\n", in, name, a.unique, a.keyKind(), waits)
		case waits != "":
			fmt.Fprintf(sb, "%s%s^SUBSET^FIRST/NEXT to each partition, range and predicate %s\n", in, strings.ToUpper(verb), waits)
		case a.via == viaNone:
			fmt.Fprintf(sb, "%saccess %s: none (unique key (%s): a NULL key value equals nothing, nor does a fraction on an INTEGER key)\n", in, name, a.unique)
			return
		case a.via == viaKey:
			fmt.Fprintf(sb, "%saccess %s: unique key [%x] via %s, one request: the key is locked, then its record read\n", in, name, a.key, a.keyKind())
			if a.pred != nil {
				fmt.Fprintf(sb, "%spredicate at Disk Process, on the locked record: %s\n", in, a.pred)
			}
		default:
			fmt.Fprintf(sb, "%s%s^SUBSET^FIRST/NEXT to each partition, range %s\n", in, strings.ToUpper(verb), a.rng)
			if a.pred != nil {
				fmt.Fprintf(sb, "%spredicate at Disk Process: %s\n", in, a.pred)
			}
		}
		if a.op == opDelete {
			return
		}
		for _, as := range a.assigns {
			fmt.Fprintf(sb, "%supdate expression at Disk Process: %s = %s\n", in, a.def.Schema.Fields[as.Field].Name, as.E)
		}
		if a.def.Check != nil {
			fmt.Fprintf(sb, "%sCHECK at Disk Process: %s\n", in, a.def.Check)
		}
		fmt.Fprintf(sb, "%srecords never cross the FS-DP interface\n", in)
	case opCount, opAgg:
		what, how := "COUNT(*) at Disk Processes via COUNT^FIRST/NEXT (constant-size replies)", "counted"
		if a.op == opAgg {
			what, how = "partial aggregation at Disk Processes via AGG^FIRST/NEXT (per-group partial states)", "aggregated"
		}
		fmt.Fprintf(sb, "%saccess %s: %s\n", in, name, what)
		if waits != "" {
			fmt.Fprintf(sb, "%sprimary-key range and predicate at Disk Process %s\n", in, waits)
		} else {
			if a.pred != nil {
				fmt.Fprintf(sb, "%spredicate at Disk Process: %s\n", in, a.pred)
			}
			if a.rng.Low != nil || a.rng.High != nil {
				fmt.Fprintf(sb, "%sprimary-key range %s\n", in, a.rng)
			}
		}
		if parts := len(a.def.Partitions); parts > 1 {
			fmt.Fprintf(sb, "%s%d partitions, %s concurrently\n", in, parts, how)
		}
	case opRows:
		switch {
		case waits != "" && a.unique != nil:
			fmt.Fprintf(sb, "%saccess %s: unique key (%s) via READ, or nothing for a NULL key value: %s\n", in, name, a.unique, waits)
			return
		case waits != "":
			fmt.Fprintf(sb, "%saccess %s: primary-key range, index probe or scan, %s\n", in, name, waits)
			a.describeProj(sb, in)
			return
		case a.via == viaNone && a.budget != 0:
			fmt.Fprintf(sb, "%saccess %s: none (unique key (%s): a NULL key value equals nothing, nor does a fraction on an INTEGER key)\n", in, name, a.unique)
			return
		case a.via == viaNone:
			fmt.Fprintf(sb, "%saccess %s: none (LIMIT 0 is answered before any conversation opens)\n", in, name)
			return
		case a.via == viaKey:
			fmt.Fprintf(sb, "%saccess %s: unique key [%x] via READ\n", in, name, a.key)
			if a.pred != nil {
				fmt.Fprintf(sb, "%s  requester filter: %s\n", in, a.pred)
			}
			return
		case a.via == viaProbe:
			fmt.Fprintf(sb, "%saccess %s: index probe (%s = %s via %s), then base-file reads by primary key\n",
				in, name, a.def.Schema.Fields[a.idx.Column].Name, a.val.Format(), a.idx.Name)
			if a.pred != nil {
				fmt.Fprintf(sb, "%s  requester filter: %s\n", in, a.pred)
			}
			return
		}
		path := "full scan [LOW,HIGH]"
		if a.rng.Low != nil || a.rng.High != nil {
			path = "primary-key range " + a.rng.String()
		}
		mode := fs.ModeRSBB
		if a.vsbb() {
			mode = fs.ModeVSBB
		}
		fmt.Fprintf(sb, "%saccess %s: %s via GET^FIRST/NEXT^%s\n", in, name, path, mode)
		if a.pred != nil {
			fmt.Fprintf(sb, "%s  predicate at Disk Process: %s\n", in, a.pred)
		}
		a.describeProj(sb, in)
		if parts := len(a.def.Partitions); parts > 1 {
			fmt.Fprintf(sb, "%s  %d partitions, routed by key range\n", in, parts)
		}
	}
}

// budgetNote annotates a LIMIT line with what the row budget does to
// this access; ordered says the statement has an ORDER BY (which only a
// key-ordered scan lets a budget survive: Top-N).
func (a *access) budgetNote(ordered bool) string {
	switch {
	case a.budget < 0 || a.via == viaNone || a.via == viaKey:
		return ""
	case ordered:
		return " (Top-N: row budget pushed to Disk Processes)"
	case a.budgetAtDP:
		return " (scan stops early) — row budget at Disk Processes"
	}
	return " (scan stops early)"
}

func (a *access) describeProj(sb *strings.Builder, in string) {
	if a.proj == nil {
		return
	}
	names := make([]string, len(a.proj))
	for i, f := range a.proj {
		names[i] = a.def.Schema.Fields[f].Name
	}
	fmt.Fprintf(sb, "%s  projection at Disk Process: %s\n", in, strings.Join(names, ", "))
}
