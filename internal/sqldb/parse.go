package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ---- Lexer ----

type tokKind int

const (
	tokEOF tokKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokPunct // single punctuation: ( ) , * = < > ! + - / ? .
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9':
			l.lexNumber()
		case isIdentStart(rune(c)):
			l.lexIdent()
		case strings.IndexByte("(),*=<>!+-/?.%", c) >= 0:
			// Two-char operators.
			if l.pos+1 < len(l.src) {
				two := l.src[l.pos : l.pos+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					l.toks = append(l.toks, token{tokPunct, two, l.pos})
					l.pos += 2
					continue
				}
			}
			l.toks = append(l.toks, token{tokPunct, string(c), l.pos})
			l.pos++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// Doubled quote escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{tokString, b.String(), start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqldb: unterminated string at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		r := rune(l.src[l.pos])
		if !isIdentStart(r) && !unicode.IsDigit(r) {
			break
		}
		l.pos++
	}
	l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
}

// ---- AST ----

type stmt interface{ nparams() int }

type stmtBase struct{ params int }

func (s *stmtBase) nparams() int { return s.params }

type createStmt struct {
	stmtBase
	table       string
	cols        []colDef
	ifNotExists bool
}

type insertStmt struct {
	stmtBase
	table string
	cols  []string
	rows  [][]expr
}

type selectItem struct {
	ex    expr
	alias string
	star  bool
}

type selectStmt struct {
	stmtBase
	table    string
	items    []selectItem
	where    expr
	orderBy  string
	orderDsc bool
	limit    int // -1 = no limit
	// aggregate is set when an item is an aggregate call, and star when
	// an item is *. Without a star, cols holds the result column names,
	// which then depend on the statement alone.
	aggregate bool
	star      bool
	cols      []string
}

type updateStmt struct {
	stmtBase
	table string
	sets  map[string]expr
	// setOrder preserves declaration order for deterministic evaluation.
	setOrder []string
	where    expr
}

type deleteStmt struct {
	stmtBase
	table string
	where expr
}

type txKind int

const (
	txBegin txKind = iota + 1
	txCommit
	txRollback
)

type txStmt struct {
	stmtBase
	kind txKind
}

// Expressions.
type expr interface{}

type litExpr struct{ v any }
type colExpr struct{ name string }
type paramExpr struct{ idx int }
type binExpr struct {
	op   string
	l, r expr
}
type unExpr struct {
	op string
	e  expr
}
type callExpr struct {
	fn   string
	arg  expr
	star bool
}

// ---- Parser ----

type parser struct {
	toks    []token
	pos     int
	nparams int
}

func parse(src string) (stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sqldb: trailing input at %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// kw reports whether the current token is the given keyword
// (case-insensitive) and consumes it if so.
func (p *parser) kw(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("sqldb: expected %s, found %q", word, p.cur().text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return nil
	}
	return fmt.Errorf("sqldb: expected %q, found %q", s, t.text)
}

func (p *parser) punct(s string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqldb: expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseStmt() (stmt, error) {
	switch {
	case p.kw("create"):
		return p.parseCreate()
	case p.kw("insert"):
		return p.parseInsert()
	case p.kw("select"):
		return p.parseSelect()
	case p.kw("update"):
		return p.parseUpdate()
	case p.kw("delete"):
		return p.parseDelete()
	case p.kw("start"):
		if err := p.expectKw("transaction"); err != nil {
			return nil, err
		}
		return &txStmt{kind: txBegin}, nil
	case p.kw("begin"):
		return &txStmt{kind: txBegin}, nil
	case p.kw("commit"):
		return &txStmt{kind: txCommit}, nil
	case p.kw("rollback"):
		return &txStmt{kind: txRollback}, nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement starting with %q", p.cur().text)
	}
}

func (p *parser) parseCreate() (stmt, error) {
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	s := &createStmt{}
	if p.kw("if") {
		if err := p.expectKw("not"); err != nil {
			return nil, err
		}
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		s.ifNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cd := colDef{name: col}
		// Optional type name.
		if p.cur().kind == tokIdent && !isColTerminator(p.cur().text) {
			cd.typ = strings.ToUpper(p.advance().text)
		}
		if p.kw("primary") {
			if err := p.expectKw("key"); err != nil {
				return nil, err
			}
			cd.pk = true
		}
		s.cols = append(s.cols, cd)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func isColTerminator(word string) bool {
	return strings.EqualFold(word, "primary")
}

func (p *parser) parseInsert() (stmt, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	s := &insertStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.cols = append(s.cols, col)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var tuple []expr
		for {
			ex, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tuple = append(tuple, ex)
			if p.punct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s.rows = append(s.rows, tuple)
		if p.punct(",") {
			continue
		}
		break
	}
	s.params = p.nparams
	return s, nil
}

func (p *parser) parseSelect() (stmt, error) {
	s := &selectStmt{limit: -1}
	for {
		if p.punct("*") {
			s.items = append(s.items, selectItem{star: true})
		} else {
			ex, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := selectItem{ex: ex}
			if p.kw("as") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.alias = alias
			}
			s.items = append(s.items, item)
		}
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	if p.kw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.where = w
	}
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.orderBy = col
		if p.kw("desc") {
			s.orderDsc = true
		} else {
			p.kw("asc")
		}
	}
	if p.kw("limit") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqldb: LIMIT expects a number, found %q", t.text)
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqldb: invalid LIMIT %q", t.text)
		}
		s.limit = n
	}
	s.params = p.nparams
	s.aggregate = isAggregate(s)
	for _, item := range s.items {
		s.star = s.star || item.star
	}
	if !s.star {
		s.cols = selectCols(s, nil)
	}
	return s, nil
}

func (p *parser) parseUpdate() (stmt, error) {
	s := &updateStmt{sets: map[string]expr{}}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		ex, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, dup := s.sets[col]; dup {
			return nil, fmt.Errorf("sqldb: column %q set twice", col)
		}
		s.sets[col] = ex
		s.setOrder = append(s.setOrder, col)
		if p.punct(",") {
			continue
		}
		break
	}
	if p.kw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.where = w
	}
	s.params = p.nparams
	return s, nil
}

func (p *parser) parseDelete() (stmt, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	s := &deleteStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	if p.kw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.where = w
	}
	s.params = p.nparams
	return s, nil
}

// ---- Expression parsing (precedence climbing) ----

// Precedence: OR < AND < NOT < comparison/LIKE < additive < multiplicative.

func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.kw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.kw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.kw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unExpr{op: "not", e: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "<", ">", "<=", ">=", "!=", "<>":
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &binExpr{op: op, l: l, r: r}, nil
		}
	}
	if p.kw("like") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &binExpr{op: "like", l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokPunct && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.pos++
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

var aggregateFns = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: bad number %q: %w", t.text, err)
			}
			return &litExpr{v: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqldb: bad number %q: %w", t.text, err)
		}
		return &litExpr{v: n}, nil
	case t.kind == tokString:
		p.pos++
		return &litExpr{v: t.text}, nil
	case t.kind == tokPunct && t.text == "?":
		p.pos++
		e := &paramExpr{idx: p.nparams}
		p.nparams++
		return e, nil
	case t.kind == tokPunct && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokPunct && t.text == "-":
		p.pos++
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &unExpr{op: "-", e: e}, nil
	case t.kind == tokIdent:
		word := strings.ToLower(t.text)
		switch word {
		case "null":
			p.pos++
			return &litExpr{v: nil}, nil
		case "true":
			p.pos++
			return &litExpr{v: true}, nil
		case "false":
			p.pos++
			return &litExpr{v: false}, nil
		}
		if aggregateFns[word] && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(" {
			p.pos += 2 // fn (
			c := &callExpr{fn: word}
			if p.punct("*") {
				c.star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.arg = arg
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return c, nil
		}
		p.pos++
		return &colExpr{name: t.text}, nil
	default:
		return nil, fmt.Errorf("sqldb: unexpected token %q in expression", t.text)
	}
}
