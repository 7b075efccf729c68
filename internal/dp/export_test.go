package dp

// CountFile returns the number of records in a file fragment.
func (d *DP) CountFile(file string) (int, error) {
	rows, err := d.DumpFile(file)
	return len(rows), err
}

// onRowPath serves every record of every subset message on the row path
// while fn runs: no predicate is judged and no aggregate folded from a
// leaf's columns. The column path's equivalence tests hold the two to the
// same replies and counters.
func onRowPath(fn func()) {
	rowPath.Store(true)
	defer rowPath.Store(false)
	fn()
}
