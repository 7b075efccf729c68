package sql

import (
	"fmt"
	"strconv"
	"strings"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/record"
)

// parseStmt compiles one statement and reports how many parameter
// markers (?) it carries, numbered left to right.
func parseStmt(src string) (Statement, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, p.errf("trailing input at %q", p.cur().text)
	}
	return stmt, p.params, nil
}

type parser struct {
	toks   []token
	pos    int
	params int // parameter markers seen so far
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: parse: "+format+" (at offset %d)", append(args, p.cur().pos)...)
}

func (p *parser) ident() (string, error) {
	if p.at(tokIdent, "") {
		return p.next().text, nil
	}
	return "", p.errf("expected identifier, found %q", p.cur().text)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.accept(tokKeyword, "INSERT"):
		return p.insertStmt()
	case p.accept(tokKeyword, "UPDATE"):
		return p.updateStmt()
	case p.accept(tokKeyword, "DELETE"):
		return p.deleteStmt()
	case p.accept(tokKeyword, "CREATE"):
		if p.accept(tokKeyword, "TABLE") {
			return p.createTable()
		}
		if p.accept(tokKeyword, "UNIQUE") {
			// Secondary indexes here are non-unique; accept and ignore.
		}
		if p.accept(tokKeyword, "INDEX") {
			return p.createIndex()
		}
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	case p.accept(tokKeyword, "DROP"):
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return DropTable{Name: name}, nil
	case p.accept(tokKeyword, "BEGIN"):
		p.accept(tokKeyword, "WORK")
		return Begin{}, nil
	case p.accept(tokKeyword, "COMMIT"):
		p.accept(tokKeyword, "WORK")
		return Commit{}, nil
	case p.accept(tokKeyword, "ROLLBACK"):
		p.accept(tokKeyword, "WORK")
		return Rollback{}, nil
	}
	return nil, p.errf("unknown statement beginning with %q", p.cur().text)
}

func (p *parser) typeName() (record.Type, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, p.errf("expected type name, found %q", t.text)
	}
	var rt record.Type
	switch t.text {
	case "INTEGER", "INT":
		rt = record.TypeInt
	case "FLOAT", "REAL", "NUMERIC":
		rt = record.TypeFloat
	case "VARCHAR", "CHAR":
		rt = record.TypeString
	case "BOOLEAN", "BOOL":
		rt = record.TypeBool
	default:
		return 0, p.errf("unknown type %q", t.text)
	}
	p.pos++
	// optional length / precision, ignored: CHAR(20), NUMERIC(10,2)
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			if p.at(tokEOF, "") {
				return 0, p.errf("unterminated type parameters")
			}
			p.pos++
		}
	}
	return rt, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	ct := CreateTable{Name: name}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PK = append(ct.PK, col)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		case p.accept(tokKeyword, "CHECK"):
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			ct.Check = e
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		default:
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			def := ColDef{Name: col, Type: typ}
			for {
				if p.accept(tokKeyword, "NOT") {
					if _, err := p.expect(tokKeyword, "NULL"); err != nil {
						return nil, err
					}
					def.NotNull = true
					continue
				}
				if p.accept(tokKeyword, "PRIMARY") {
					if _, err := p.expect(tokKeyword, "KEY"); err != nil {
						return nil, err
					}
					def.PK = true
					def.NotNull = true
					continue
				}
				break
			}
			ct.Cols = append(ct.Cols, def)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	// PARTITION ON ("$V1", "$V2" FROM <literal>, ...)
	if p.accept(tokKeyword, "PARTITION") {
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			vol, err := p.volumeName()
			if err != nil {
				return nil, err
			}
			pc := PartitionClause{Volume: vol}
			if p.accept(tokKeyword, "FROM") {
				v, err := p.literal()
				if err != nil {
					return nil, err
				}
				pc.From = v
			}
			ct.Partitions = append(ct.Partitions, pc)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// volumeName accepts "$DATA1" or '$DATA1' or a bare $-identifier.
func (p *parser) volumeName() (string, error) {
	if p.at(tokString, "") || p.at(tokIdent, "") {
		return p.next().text, nil
	}
	return "", p.errf("expected volume name, found %q", p.cur().text)
}

// literal parses a constant for PARTITION FROM clauses.
func (p *parser) literal() (record.Value, error) {
	neg := p.accept(tokSymbol, "-")
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return record.Null, p.errf("bad integer %q", t.text)
		}
		if neg {
			v = -v
		}
		return record.Int(v), nil
	case tokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return record.Null, p.errf("bad float %q", t.text)
		}
		if neg {
			v = -v
		}
		return record.Float(v), nil
	case tokString:
		if neg {
			return record.Null, p.errf("negated string literal")
		}
		p.pos++
		return record.String(t.text), nil
	}
	return record.Null, p.errf("expected literal, found %q", t.text)
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	ci := CreateIndex{Name: name, Table: table, Column: col}
	if p.accept(tokKeyword, "ON") {
		vol, err := p.volumeName()
		if err != nil {
			return nil, err
		}
		ci.Volume = vol
	}
	return ci, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := Insert{Table: table}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []aExpr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) selectStmt() (Statement, error) {
	sel := Select{Limit: -1}
	for {
		if p.accept(tokSymbol, "*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.at(tokIdent, "") {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: name}
		if p.accept(tokKeyword, "AS") {
			if ref.Alias, err = p.ident(); err != nil {
				return nil, err
			}
		} else if p.at(tokIdent, "") {
			ref.Alias = p.next().text
		}
		sel.From = append(sel.From, ref)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if len(sel.From) > 2 {
		return nil, p.errf("at most two tables per SELECT are supported")
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	if p.accept(tokKeyword, "FOR") {
		if _, err := p.expect(tokKeyword, "BROWSE"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ACCESS"); err != nil {
			return nil, err
		}
		sel.Browse = true
	}
	return sel, nil
}

func (p *parser) updateStmt() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	upd := Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		// allow qualified target TABLE.COL
		if p.accept(tokSymbol, ".") {
			if col2, err := p.ident(); err == nil {
				col = col2
			} else {
				return nil, err
			}
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, SetClause{Col: col, E: e})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := Delete{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

// expression parsing, precedence climbing ------------------------------

func (p *parser) expr() (aExpr, error) { return p.orExpr() }

func (p *parser) orExpr() (aExpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = aBin{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (aExpr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = aBin{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (aExpr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return aUnary{Op: expr.OpNot, E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (aExpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		not := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		op := expr.OpIsNull
		if not {
			op = expr.OpIsNotNull
		}
		return aUnary{Op: op, E: l}, nil
	}
	// [NOT] BETWEEN / LIKE / IN
	notPrefix := false
	if p.at(tokKeyword, "NOT") && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "BETWEEN" || p.toks[p.pos+1].text == "LIKE" || p.toks[p.pos+1].text == "IN") {
		p.pos++
		notPrefix = true
	}
	wrap := func(e aExpr) aExpr {
		if notPrefix {
			return aUnary{Op: expr.OpNot, E: e}
		}
		return e
	}
	switch {
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return wrap(aBin{Op: expr.OpAnd,
			L: aBin{Op: expr.OpGE, L: l, R: lo},
			R: aBin{Op: expr.OpLE, L: l, R: hi}}), nil
	case p.accept(tokKeyword, "LIKE"):
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return wrap(aBin{Op: expr.OpLike, L: l, R: r}), nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var out aExpr
		for {
			v, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			eq := aBin{Op: expr.OpEQ, L: l, R: v}
			if out == nil {
				out = eq
			} else {
				out = aBin{Op: expr.OpOr, L: out, R: eq}
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return wrap(out), nil
	}
	ops := map[string]expr.Op{
		"=": expr.OpEQ, "<>": expr.OpNE, "!=": expr.OpNE,
		"<": expr.OpLT, "<=": expr.OpLE, ">": expr.OpGT, ">=": expr.OpGE,
	}
	if p.cur().kind == tokSymbol {
		if op, ok := ops[p.cur().text]; ok {
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return aBin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (aExpr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch {
		case p.accept(tokSymbol, "+"):
			op = expr.OpAdd
		case p.accept(tokSymbol, "-"):
			op = expr.OpSub
		default:
			return l, nil
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = aBin{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (aExpr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch {
		case p.accept(tokSymbol, "*"):
			op = expr.OpMul
		case p.accept(tokSymbol, "/"):
			op = expr.OpDiv
		case p.accept(tokSymbol, "%"):
			op = expr.OpMod
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = aBin{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (aExpr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return aUnary{Op: expr.OpNeg, E: e}, nil
	}
	return p.primary()
}

func (p *parser) primary() (aExpr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return aConst{V: record.Int(v)}, nil
	case tokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return aConst{V: record.Float(v)}, nil
	case tokString:
		p.pos++
		return aConst{V: record.String(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return aConst{V: record.Null}, nil
		case "TRUE":
			p.pos++
			return aConst{V: record.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return aConst{V: record.Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			call := aCall{Fn: t.text}
			if p.accept(tokSymbol, "*") {
				call.Star = true
			} else {
				call.Distinct = p.accept(tokKeyword, "DISTINCT")
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Arg = arg
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.pos++
		name := t.text
		if p.accept(tokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return aCol{Table: strings.ToUpper(name), Name: strings.ToUpper(col)}, nil
		}
		return aCol{Name: strings.ToUpper(name)}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "?" {
			p.pos++
			p.params++
			return aParam{Index: p.params - 1}, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
