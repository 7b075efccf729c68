// Command experiments runs the reproduced tables and figures of the
// paper (DESIGN.md §4) from experiments.Registry and prints them as
// aligned text, suitable for pasting into EXPERIMENTS.md. Columns whose
// header ends in ~ are Observed (a clock or a scheduler can change them);
// every other column is pinned at -quick scale by
// internal/experiments/testdata/quick.golden.
//
// Usage:
//
//	experiments [-quick] [-only E2]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nonstopsql/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run with test-sized workloads")
	only := flag.String("only", "", "run a single experiment by ID (e.g. E2, F1, ABL-PUSHDOWN)")
	flag.Parse()

	sizes := experiments.Full()
	if *quick {
		sizes = experiments.Quick()
	}
	ran := 0
	for _, e := range experiments.Registry {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		t, err := e.Run(sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment %q\n", *only)
		os.Exit(2)
	}
}
