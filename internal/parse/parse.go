// Package parse builds optimizer queries from SQL text.
//
// The supported dialect covers exactly the query class the paper's
// workloads (and this optimizer) handle — star-schema equi-join queries
// with local range selections and an optional ORDER BY:
//
//	SELECT *
//	FROM R25 t1, R7 t2, R13 t3
//	WHERE t1.c4 = t2.c9
//	  AND t2.c2 = t3.c2
//	  AND t3.c5 < 100
//	ORDER BY t1.c4;
//
// Tables resolve by name against a catalog; aliases are optional when a
// table appears once. The output of query.SQL (and the sdpgen tool) always
// round-trips through this parser.
package parse

import (
	"fmt"
	"strconv"
	"strings"

	"sdpopt/internal/catalog"
	"sdpopt/internal/query"
)

// SQL parses one query against the catalog.
func SQL(cat *catalog.Catalog, src string) (*query.Query, error) {
	l, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{cat: cat, src: src, lex: l}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	cat *catalog.Catalog
	src string
	lex *lexer
	i   int

	// aliases[i] names query-local relation i; lookups are
	// case-insensitive.
	aliases []string
	rels    []int
}

func (p *parser) peek() token { return p.lex.toks[p.i] }

// text returns the source text of a token.
func (p *parser) text(t token) string { return p.src[t.pos:t.end] }

// atKeyword matches the next token against a keyword.
func (p *parser) atKeyword(kw string) bool { return isKeyword(p.src, p.peek(), kw) }

// at renders a token offset as "line:col" for error messages.
func (p *parser) at(off int32) string { return lineCol(p.src, int(off)) }

func (p *parser) next() token {
	t := p.lex.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("parse: expected %v at %s, got %v %q", kind, p.at(t.pos), t.kind, p.text(t))
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !isKeyword(p.src, t, kw) {
		return fmt.Errorf("parse: expected %q at %s, got %q", kw, p.at(t.pos), p.text(t))
	}
	return nil
}

func (p *parser) query() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokStar); err != nil {
		return nil, fmt.Errorf("parse: only SELECT * is supported: %w", err)
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.fromList(); err != nil {
		return nil, err
	}
	var preds []query.Pred
	var filters []query.Filter
	if p.atKeyword("WHERE") {
		p.next()
		var err error
		preds, filters, err = p.condList()
		if err != nil {
			return nil, err
		}
	}
	var orderBy *query.OrderSpec
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		rel, col, err := p.colRef()
		if err != nil {
			return nil, err
		}
		orderBy = &query.OrderSpec{Rel: rel, Col: col}
	}
	if p.peek().kind == tokSemi {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("parse: trailing input at %s: %q", p.at(t.pos), p.text(t))
	}
	return query.NewFiltered(p.cat, p.rels, preds, filters, orderBy)
}

func (p *parser) fromList() error {
	// Commas appear only between FROM items in this dialect.
	n := p.lex.count[tokComma] + 1
	p.aliases = make([]string, 0, n)
	p.rels = make([]int, 0, n)
	for {
		name, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		relIdx, err := p.lookupRelation(p.text(name))
		if err != nil {
			return fmt.Errorf("%w (at %s)", err, p.at(name.pos))
		}
		alias := p.text(name)
		// Optional alias: an identifier that is not a clause keyword.
		if t := p.peek(); t.kind == tokIdent && !p.atKeyword("WHERE") && !p.atKeyword("ORDER") {
			alias = p.text(p.next())
		}
		if _, dup := p.alias(alias); dup {
			return fmt.Errorf("parse: duplicate alias %q at %s", alias, p.at(name.pos))
		}
		p.aliases = append(p.aliases, alias)
		p.rels = append(p.rels, relIdx)
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

// alias resolves an alias to its query-local relation index.
func (p *parser) alias(name string) (int, bool) {
	for i, a := range p.aliases {
		if strings.EqualFold(a, name) {
			return i, true
		}
	}
	return 0, false
}

func (p *parser) lookupRelation(name string) (int, error) {
	for i := 0; i < p.cat.NumRelations(); i++ {
		if strings.EqualFold(p.cat.Relation(i).Name, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("parse: unknown relation %q", name)
}

func (p *parser) condList() ([]query.Pred, []query.Filter, error) {
	// Every '=' is a join predicate and every '<' a filter.
	preds := make([]query.Pred, 0, p.lex.count[tokEq])
	filters := make([]query.Filter, 0, p.lex.count[tokLt])
	for {
		lrel, lcol, err := p.colRef()
		if err != nil {
			return nil, nil, err
		}
		op := p.next()
		switch op.kind {
		case tokEq:
			rrel, rcol, err := p.colRef()
			if err != nil {
				return nil, nil, err
			}
			preds = append(preds, query.Pred{LeftRel: lrel, LeftCol: lcol, RightRel: rrel, RightCol: rcol})
		case tokLt:
			num, err := p.expect(tokNumber)
			if err != nil {
				return nil, nil, err
			}
			bound, err := strconv.ParseInt(p.text(num), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("parse: bad bound %q at %s", p.text(num), p.at(num.pos))
			}
			filters = append(filters, query.Filter{Rel: lrel, Col: lcol, Bound: bound})
		default:
			return nil, nil, fmt.Errorf("parse: expected '=' or '<' at %s, got %q", p.at(op.pos), p.text(op))
		}
		if !p.atKeyword("AND") {
			return preds, filters, nil
		}
		p.next()
	}
}

// colRef parses alias '.' column into query-local (rel, col) indexes.
func (p *parser) colRef() (int, int, error) {
	alias, err := p.expect(tokIdent)
	if err != nil {
		return 0, 0, err
	}
	rel, ok := p.alias(p.text(alias))
	if !ok {
		return 0, 0, fmt.Errorf("parse: unknown alias %q at %s", p.text(alias), p.at(alias.pos))
	}
	if _, err := p.expect(tokDot); err != nil {
		return 0, 0, err
	}
	colTok, err := p.expect(tokIdent)
	if err != nil {
		return 0, 0, err
	}
	cols := p.cat.Relation(p.rels[rel]).Cols
	for c := range cols {
		if strings.EqualFold(cols[c].Name, p.text(colTok)) {
			return rel, c, nil
		}
	}
	return 0, 0, fmt.Errorf("parse: relation %s has no column %q (at %s)",
		p.cat.Relation(p.rels[rel]).Name, p.text(colTok), p.at(colTok.pos))
}
