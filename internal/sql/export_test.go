package sql

// Parse compiles one SQL statement's text into its AST.
func Parse(src string) (Statement, error) {
	stmt, _, err := parseStmt(src)
	return stmt, err
}

// Version returns the catalog version the plan was compiled against.
func (p *Prepared) Version() uint64 { return p.version }
