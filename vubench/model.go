package main

// The oracles the workloads are checked against. They share no code
// with the program under test: rows are kept in their wire form (one
// string per column), base operations are parsed from the text of each
// acknowledgement, and the join is a nested loop over the base model.

import (
	"fmt"
	"sort"
	"strings"
)

// A row is one tuple in wire form.
type row []string

func (r row) key() string { return strings.Join(r, "\x00") }

func (r row) clone() row { return append(row(nil), r...) }

// A viewModel is the request-level model of a view: it applies each
// acknowledged insert, delete or replace to a set of view rows, the way
// the request reads, without knowing how the program translated it.
// Rows are keyed by their first column, the view key.
//
// groups lists the column groups that belong to one base tuple. A
// replace that changes a column of a group changes that group in every
// row that agrees with the old row on the whole group: through a join
// view, a department's budget is the same in every row of that
// department. A select-project view is one group.
type viewModel struct {
	cols   []string
	groups [][]int
	rows   map[string]row
}

func newViewModel(cols []string, groups [][]int) *viewModel {
	return &viewModel{cols: cols, groups: groups, rows: map[string]row{}}
}

func (m *viewModel) col(name string) (int, error) {
	for i, c := range m.cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("view model: no column %s", name)
}

// find returns the single row matching every equality of where.
func (m *viewModel) find(where map[string]string) (row, error) {
	var hit row
	n := 0
	for _, r := range m.rows {
		ok := true
		for name, want := range where {
			i, err := m.col(name)
			if err != nil {
				return nil, err
			}
			if r[i] != want {
				ok = false
				break
			}
		}
		if ok {
			hit = r
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("view model: %d rows match %v", n, where)
	}
	return hit, nil
}

func (m *viewModel) insert(values []string) error {
	if len(values) != len(m.cols) {
		return fmt.Errorf("view model: insert of %d values into %d columns", len(values), len(m.cols))
	}
	if _, dup := m.rows[values[0]]; dup {
		return fmt.Errorf("view model: insert of existing key %s", values[0])
	}
	m.rows[values[0]] = row(values).clone()
	return nil
}

func (m *viewModel) delete(where map[string]string) error {
	r, err := m.find(where)
	if err != nil {
		return err
	}
	delete(m.rows, r[0])
	return nil
}

func (m *viewModel) replace(where, set map[string]string) error {
	old, err := m.find(where)
	if err != nil {
		return err
	}
	nu := old.clone()
	for name, v := range set {
		i, err := m.col(name)
		if err != nil {
			return err
		}
		nu[i] = v
	}
	for _, g := range m.groups {
		changed := false
		for _, i := range g {
			changed = changed || nu[i] != old[i]
		}
		if !changed {
			continue
		}
		for k, r := range m.rows {
			if k == old[0] || !sameOn(r, old, g) {
				continue
			}
			moved := r.clone()
			for _, i := range g {
				moved[i] = nu[i]
			}
			m.rows[k] = moved
		}
	}
	delete(m.rows, old[0])
	if _, dup := m.rows[nu[0]]; dup {
		return fmt.Errorf("view model: replace onto existing key %s", nu[0])
	}
	m.rows[nu[0]] = nu
	return nil
}

func sameOn(a, b row, cols []int) bool {
	for _, i := range cols {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *viewModel) lookup(key string) (row, bool) {
	r, ok := m.rows[key]
	return r, ok
}

func (m *viewModel) all() []row {
	out := make([]row, 0, len(m.rows))
	for _, r := range m.rows {
		out = append(out, r)
	}
	return out
}

// A baseModel holds each base relation's rows keyed by their first
// column (every relation of the workloads is keyed on it), built from
// the preload and then from the operations each acknowledgement
// reports.
type baseModel struct {
	rels map[string]map[string]row
}

func newBaseModel() *baseModel { return &baseModel{rels: map[string]map[string]row{}} }

func (b *baseModel) rel(name string) map[string]row {
	r, ok := b.rels[name]
	if !ok {
		r = map[string]row{}
		b.rels[name] = r
	}
	return r
}

func (b *baseModel) add(rel string, r row) error {
	t := b.rel(rel)
	if _, dup := t[r[0]]; dup {
		return fmt.Errorf("base model: %s already holds key %s", rel, r[0])
	}
	t[r[0]] = r.clone()
	return nil
}

func (b *baseModel) remove(rel string, r row) error {
	t := b.rel(rel)
	cur, ok := t[r[0]]
	if !ok || cur.key() != r.key() {
		return fmt.Errorf("base model: %s does not hold %v", rel, r)
	}
	delete(t, r[0])
	return nil
}

// apply applies one reported operation, in the text form the program
// acknowledges it: "INSERT R(1, 'a')", "DELETE R(1, 'a')" or
// "REPLACE R(1, 'a') -> R(1, 'b')".
func (b *baseModel) apply(text string) error {
	op, err := parseOp(text)
	if err != nil {
		return err
	}
	switch op.kind {
	case "INSERT":
		return b.add(op.rel, op.new)
	case "DELETE":
		return b.remove(op.rel, op.old)
	default:
		if err := b.remove(op.rel, op.old); err != nil {
			return err
		}
		return b.add(op.rel, op.new)
	}
}

func (b *baseModel) all(rel string) []row {
	t := b.rel(rel)
	out := make([]row, 0, len(t))
	for _, r := range t {
		out = append(out, r)
	}
	return out
}

// where returns the rows of rel whose column col holds one of vals: the
// restriction of the base to a view's selection.
func (b *baseModel) where(rel string, col int, vals ...string) []row {
	var out []row
	for _, r := range b.rel(rel) {
		for _, v := range vals {
			if r[col] == v {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// A baseOp is one parsed acknowledgement operation.
type baseOp struct {
	kind     string
	rel      string
	old, new row
}

func parseOp(text string) (baseOp, error) {
	kind, rest, ok := strings.Cut(text, " ")
	if !ok {
		return baseOp{}, fmt.Errorf("op %q: no operand", text)
	}
	op := baseOp{kind: kind}
	var err error
	switch kind {
	case "INSERT":
		op.rel, op.new, err = parseTuple(rest)
	case "DELETE":
		op.rel, op.old, err = parseTuple(rest)
	case "REPLACE":
		l, r, found := strings.Cut(rest, " -> ")
		if !found {
			return baseOp{}, fmt.Errorf("op %q: replace without ->", text)
		}
		var rel2 string
		if op.rel, op.old, err = parseTuple(l); err == nil {
			rel2, op.new, err = parseTuple(r)
			if err == nil && rel2 != op.rel {
				err = fmt.Errorf("replace across relations %s and %s", op.rel, rel2)
			}
		}
	default:
		return baseOp{}, fmt.Errorf("op %q: unknown kind", text)
	}
	if err != nil {
		return baseOp{}, fmt.Errorf("op %q: %w", text, err)
	}
	return op, nil
}

// parseTuple reads "R(1, 'New York', true)" into the relation name and
// the wire form of its values: integers and booleans as written,
// strings without their quotes (two quotes inside one stand for one).
func parseTuple(s string) (string, row, error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed tuple %q", s)
	}
	name, body := s[:open], s[open+1:len(s)-1]
	var out row
	for i := 0; i < len(body); {
		for i < len(body) && body[i] == ' ' {
			i++
		}
		var cell strings.Builder
		if i < len(body) && body[i] == '\'' {
			i++
			for {
				if i >= len(body) {
					return "", nil, fmt.Errorf("unterminated string in %q", s)
				}
				if body[i] == '\'' {
					if i+1 < len(body) && body[i+1] == '\'' {
						cell.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				cell.WriteByte(body[i])
				i++
			}
		} else {
			for i < len(body) && body[i] != ',' {
				cell.WriteByte(body[i])
				i++
			}
		}
		out = append(out, strings.TrimSpace(cell.String()))
		for i < len(body) && body[i] == ' ' {
			i++
		}
		if i < len(body) {
			if body[i] != ',' {
				return "", nil, fmt.Errorf("expected , at %d in %q", i, s)
			}
			i++
		}
	}
	return name, out, nil
}

// A joinLevel is one edge of a reference chain: column fk of the rows
// built so far references the key (first column) of rel.
type joinLevel struct {
	rel string
	fk  int
}

// nestedLoopJoin joins the base model along a reference chain rooted at
// root: every root row, extended level by level with every row of the
// referenced relation whose key equals the referencing column. A root
// row with a dangling reference drops out, as it does from the view.
func nestedLoopJoin(b *baseModel, root string, levels []joinLevel) []row {
	rows := b.all(root)
	for _, lv := range levels {
		var next []row
		for _, r := range rows {
			for _, p := range b.rel(lv.rel) {
				if p[0] == r[lv.fk] {
					next = append(next, append(r.clone(), p...))
				}
			}
		}
		rows = next
	}
	return rows
}

// sameRows compares two row sets and describes the first differences.
func sameRows(what string, want, got []row) error {
	w := map[string]bool{}
	for _, r := range want {
		w[r.key()] = true
	}
	g := map[string]bool{}
	var extra []string
	for _, r := range got {
		k := r.key()
		if g[k] {
			extra = append(extra, "duplicate "+strings.Join(r, "|"))
		}
		g[k] = true
		if !w[k] {
			extra = append(extra, "unexpected "+strings.Join(r, "|"))
		}
	}
	for _, r := range want {
		if !g[r.key()] {
			extra = append(extra, "missing "+strings.Join(r, "|"))
		}
	}
	if len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	if len(extra) > 5 {
		extra = append(extra[:5], fmt.Sprintf("... %d more", len(extra)-5))
	}
	return fmt.Errorf("%s: want %d rows, got %d: %s", what, len(want), len(got), strings.Join(extra, "; "))
}
