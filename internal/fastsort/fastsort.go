// Package fastsort implements the parallel sorter the paper's SQL
// compiler can invoke ("FastSort: An External Sort Using Parallel
// Processing" [Tsukerman]): initial runs are sorted by a pool of sorter
// processes in parallel, then merged pairwise in parallel rounds. The
// paper's FastSort also spills its runs to scratch files on several disk
// volumes; here its one input, an ORDER BY result, is already in memory,
// so the runs stay there.
package fastsort

import (
	"sort"
	"sync"

	"nonstopsql/internal/record"
)

// Less orders two rows.
type Less func(a, b record.Row) bool

const (
	workers = 4    // parallel sorter processes
	runSize = 4096 // records per initial run; no more than this sort in place
)

// Sort orders rows by less, stably. Up to runSize rows sort in place and
// rows itself is returned; more are sorted in runs by parallel sorter
// processes and merged into a new slice.
func Sort(rows []record.Row, less Less) []record.Row {
	return sortWith(rows, less, workers, runSize)
}

// sortWith is Sort with the worker count and run size given.
func sortWith(rows []record.Row, less Less, workers, runSize int) []record.Row {
	if len(rows) <= runSize {
		sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		return rows
	}
	return mergeRuns(sortRuns(rows, less, workers, runSize), less, workers)
}

// sortRuns splits rows into runs and sorts them concurrently: the
// "multiple processors" half of FastSort.
func sortRuns(rows []record.Row, less Less, workers, runSize int) [][]record.Row {
	var runs [][]record.Row
	for start := 0; start < len(rows); start += runSize {
		end := start + runSize
		if end > len(rows) {
			end = len(rows)
		}
		runs = append(runs, rows[start:end])
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, run := range runs {
		run := run
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			sort.SliceStable(run, func(i, j int) bool { return less(run[i], run[j]) })
			<-sem
		}()
	}
	wg.Wait()
	return runs
}

// mergeRuns merges runs pairwise in parallel rounds (a merge tree),
// keeping all workers busy until one run remains.
func mergeRuns(runs [][]record.Row, less Less, workers int) []record.Row {
	for len(runs) > 1 {
		next := make([][]record.Row, (len(runs)+1)/2)
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(runs); i += 2 {
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				next[i/2] = merge2(runs[i], runs[i+1], less)
				<-sem
			}()
		}
		if len(runs)%2 == 1 {
			next[len(next)-1] = runs[len(runs)-1]
		}
		wg.Wait()
		runs = next
	}
	return runs[0]
}

func merge2(a, b []record.Row, less Less) []record.Row {
	out := make([]record.Row, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
