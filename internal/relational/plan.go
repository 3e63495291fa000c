package relational

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

var errLikeNeedsStrings = errors.New("relational: LIKE needs strings")

func errUnknownColumn(col string) error {
	return fmt.Errorf("relational: unknown column %q", col)
}

func errBadOperator(op string) error {
	return fmt.Errorf("relational: bad operator %q", op)
}

// This file is the SELECT planner. Two optimizations over the naive
// evaluate-every-row executor (ScanSelect):
//
//  1. Predicate compilation: column references are resolved to positions
//     once per statement instead of once per row per operand (ColIndex is
//     a linear scan over the schema — the dominant per-row cost).
//  2. Top-k selection: ORDER BY + LIMIT keeps a bounded heap instead of
//     sorting every matched row.
//
// A plan runs over row sets held outside any table (RowsQuery, the path
// of the R-GMA servlets and of a continuous query over published rows),
// where one plan and one Result serve every set a query runs over.
//
// Work accounting: RowsStats.Scanned always reports the logical scan
// cost (the rows the naive executor examines — the quantity the testbed
// charges CPU for), even when no row is read; Indexed marks a WHERE the
// plan proves empty without reading a row (provablyEmpty). The
// differential tests in plan_test.go hold the planner to byte-identical
// results with the naive executor.

// compiledPred is a WHERE predicate with all column references resolved.
type compiledPred func(row []Value) (bool, error)

// compileBool compiles e against the schema, and reports the first
// column, in walk order, that the schema lacks ("" when every one
// resolves). A comparison naming such a column compiles to one that
// fails with the error Eval would, so a compiled WHERE fails on the same
// row, with the same error, as Eval does: never on an empty set, and
// never where AND or OR short-circuits past it.
func compileBool(s *Schema, e BoolExpr) (compiledPred, string) {
	switch e := e.(type) {
	case andExpr:
		l, lu := compileBool(s, e.l)
		r, ru := compileBool(s, e.r)
		return func(row []Value) (bool, error) {
			lv, err := l(row)
			if err != nil || !lv {
				return false, err
			}
			return r(row)
		}, cmp.Or(lu, ru)
	case orExpr:
		l, lu := compileBool(s, e.l)
		r, ru := compileBool(s, e.r)
		return func(row []Value) (bool, error) {
			lv, err := l(row)
			if err != nil || lv {
				return lv, err
			}
			return r(row)
		}, cmp.Or(lu, ru)
	case notExpr:
		x, xu := compileBool(s, e.x)
		return func(row []Value) (bool, error) {
			xv, err := x(row)
			return !xv, err
		}, xu
	case cmpExpr:
		left, lok := compileOperand(s, e.left)
		right, rok := compileOperand(s, e.right)
		if !lok || !rok {
			col := e.left.col
			if lok {
				col = e.right.col
			}
			err := errUnknownColumn(col)
			return func([]Value) (bool, error) { return false, err }, col
		}
		op := e.op
		return func(row []Value) (bool, error) {
			return evalCmp(op, left(row), right(row))
		}, ""
	}
	panic(fmt.Sprintf("relational: no compiled form of %T", e))
}

// compileOperand resolves an operand to a row accessor.
func compileOperand(s *Schema, o operand) (func(row []Value) Value, bool) {
	if !o.isCol {
		v := o.val
		return func([]Value) Value { return v }, true
	}
	ci := s.ColIndex(o.col)
	if ci < 0 {
		return nil, false
	}
	return func(row []Value) Value { return row[ci] }, true
}

// Check reports the error every set with columns cols fails s with
// once a row reaches the column: the first SELECT-list column cols
// lack, else the first WHERE column they lack. nil means no column of
// either is missing.
func (s SelectStmt) Check(cols []Column) error {
	sch := &Schema{Columns: cols}
	if _, _, err := projectionPlan(sch, s); err != nil {
		return err
	}
	if s.Where != nil {
		if _, col := compileBool(sch, s.Where); col != "" {
			return errUnknownColumn(col)
		}
	}
	return nil
}

// evalCmp applies one comparison; it is the shared kernel of both
// cmpExpr.Eval and the compiled predicate, so the two paths cannot
// diverge.
func evalCmp(op string, l, r Value) (bool, error) {
	if op == "LIKE" {
		if l.Type != StringType || r.Type != StringType {
			return false, errLikeNeedsStrings
		}
		return likeMatch(r.S, l.S), nil
	}
	cmp, err := l.Compare(r)
	if err != nil {
		return false, err
	}
	switch op {
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, errBadOperator(op)
}

// operandType reports the static type an operand produces: column type
// for columns (rows always store coerced, column-typed values), literal
// type otherwise.
func operandType(s *Schema, o operand) (ColType, bool) {
	if !o.isCol {
		return o.val.Type, true
	}
	ci := s.ColIndex(o.col)
	if ci < 0 {
		return 0, false
	}
	return s.Columns[ci].Type, true
}

// typeSafe reports whether no comparison in the WHERE tree can raise a
// runtime type error on any row: every LIKE sees two strings and every
// ordering comparison sees string/string or numeric/numeric. Only then
// may the planner skip rows — the scan path would surface an error from
// the very rows the index prunes.
func typeSafe(s *Schema, e BoolExpr) bool {
	switch e := e.(type) {
	case andExpr:
		return typeSafe(s, e.l) && typeSafe(s, e.r)
	case orExpr:
		return typeSafe(s, e.l) && typeSafe(s, e.r)
	case notExpr:
		return typeSafe(s, e.x)
	case cmpExpr:
		lt, ok := operandType(s, e.left)
		if !ok {
			return false
		}
		rt, ok := operandType(s, e.right)
		if !ok {
			return false
		}
		if e.op == "LIKE" {
			return lt == StringType && rt == StringType
		}
		lStr, rStr := lt == StringType, rt == StringType
		return lStr == rStr
	}
	return false
}

// maxExactInt bounds the integers exactly representable as float64;
// beyond it Compare's numeric equality and an index's string keys can
// disagree, so findEqLookup passes over such literals.
const maxExactInt = int64(1) << 53

// findEqLookup walks the top-level AND chain of e for the first
// `col = literal` (or `literal = col`) conjunct a hash index on col could
// serve exactly-or-superset — a string column with a string literal, or
// a numeric column with a literal within float64-exact range — and
// reports whether that conjunct is impossible: a non-integral real
// against an INT column, which matches no row. The first such conjunct
// alone decides, as it would for a planner probing an index on it: the
// accounting is the index model's, whatever the engine executes.
func findEqLookup(s *Schema, e BoolExpr) (impossible, ok bool) {
	switch e := e.(type) {
	case andExpr:
		if impossible, ok := findEqLookup(s, e.l); ok {
			return impossible, ok
		}
		return findEqLookup(s, e.r)
	case cmpExpr:
		if e.op != "=" {
			return false, false
		}
		col, lit := e.left, e.right
		if !col.isCol {
			col, lit = lit, col
		}
		if !col.isCol || lit.isCol {
			return false, false
		}
		ci := s.ColIndex(col.col)
		if ci < 0 {
			return false, false
		}
		return eqLookupFor(s.Columns[ci].Type, lit.val)
	}
	return false, false
}

func eqLookupFor(colType ColType, lit Value) (impossible, ok bool) {
	exact := func(i int64) bool { return -maxExactInt < i && i < maxExactInt }
	switch colType {
	case StringType:
		return false, lit.Type == StringType
	case IntType:
		switch lit.Type {
		case IntType:
			return false, exact(lit.I)
		case RealType:
			i := int64(lit.R)
			if float64(i) != lit.R {
				return true, true
			}
			return false, exact(i)
		}
	case RealType:
		switch lit.Type {
		case RealType:
			return false, true
		case IntType:
			return false, exact(lit.I)
		}
	}
	return false, false
}

// provablyEmpty reports whether where matches no row, decided without
// reading one: no comparison in it can raise a type error (typeSafe —
// otherwise the scan would surface that error from some row), and its
// first indexable equality conjunct is impossible (findEqLookup).
func provablyEmpty(s *Schema, where BoolExpr) bool {
	if !typeSafe(s, where) {
		return false
	}
	impossible, ok := findEqLookup(s, where)
	return ok && impossible
}

// selectPlan is a SELECT resolved against a column set: projection
// positions and names, the compiled predicate, whether it is provably
// empty, and the ORDER BY position. It holds no table and reads no row,
// so it depends only on the statement and the columns, and one plan
// serves every set with those columns. A prepared statement's plan is
// shared by concurrent queries: nothing in a plan is written after
// newSelectPlan returns it, and colNames, which becomes Result.Columns,
// is read-only too.
type selectPlan struct {
	colIdx   []int
	colNames []string
	pred     compiledPred // nil when there is no WHERE
	empty    bool         // provablyEmpty: no row need be read
	oi       int          // ORDER BY column position; -1 when absent or unknown
}

// newSelectPlan resolves s against sch. Projection errors surface here
// (as the naive executor surfaces them before scanning); an unknown ORDER
// BY column is recorded and surfaces only after matching, again matching
// the naive executor's error order. It returns the plan by value, so a
// prepared statement stores it without a separate allocation.
func newSelectPlan(sch *Schema, s SelectStmt) (selectPlan, error) {
	colIdx, colNames, err := projectionPlan(sch, s)
	if err != nil {
		return selectPlan{}, err
	}
	p := selectPlan{colIdx: colIdx, colNames: colNames, oi: -1}
	if s.Where != nil {
		p.pred, _ = compileBool(sch, s.Where)
		p.empty = provablyEmpty(sch, s.Where)
	}
	if s.OrderBy != "" {
		p.oi = sch.ColIndex(s.OrderBy)
	}
	return p, nil
}

// A Prepared statement is a SELECT parsed to be run by many queries,
// possibly at once. Its Select, and every copy of it, shares one plan
// slot: the first run that compiles a plan stores it there, for the
// columns it ran over, and every later run over equal columns reuses it
// instead of compiling its own. A run over other columns compiles a plan
// for that query only. The plan never depends on rows, so it is never
// invalidated. Select's fields must not be changed: a changed copy would
// still share the plan.
type Prepared struct {
	Select SelectStmt
	plan   sharedPlan
}

// Prepare parses sql into a Prepared statement, in one allocation more
// than Parse.
func Prepare(sql string) (*Prepared, error) {
	s, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Select: s}
	p.Select.shared = &p.plan
	return p, nil
}

// sharedPlan is a prepared statement's plan slot. state publishes it: a
// run that moves it from planEmpty to planBusy stores cols and plan and
// then sets planReady, after which neither is written again, so a reader
// that loads planReady may read both without a lock. A run that finds
// the slot busy compiles a plan of its own.
type sharedPlan struct {
	state atomic.Uint32
	cols  []Column // the columns plan was compiled against
	plan  selectPlan
}

// The states of a sharedPlan.
const (
	planEmpty uint32 = iota
	planBusy
	planReady
)

// planOver returns s's plan over a set with schema sch: the shared plan
// of a prepared s when it was compiled for these columns, else a new
// one, which becomes the shared plan when a prepared s has none yet. The
// shared plan keeps sch.Columns, which must not change afterwards.
func (s SelectStmt) planOver(sch *Schema) (*selectPlan, error) {
	sp := s.shared
	if sp != nil && sp.state.Load() == planReady && slices.Equal(sp.cols, sch.Columns) {
		return &sp.plan, nil
	}
	p, err := newSelectPlan(sch, s)
	if err != nil {
		return nil, err
	}
	if sp != nil && sp.state.CompareAndSwap(planEmpty, planBusy) {
		sp.cols, sp.plan = sch.Columns, p
		sp.state.Store(planReady)
		return &sp.plan, nil
	}
	own := p
	return &own, nil
}

// projectionPlan resolves the SELECT column list against the schema.
func projectionPlan(sch *Schema, s SelectStmt) (colIdx []int, colNames []string, err error) {
	if len(s.Columns) == 0 {
		colIdx = make([]int, len(sch.Columns))
		for i := range colIdx {
			colIdx[i] = i
		}
		return colIdx, sch.Names(), nil
	}
	colIdx = make([]int, 0, len(s.Columns))
	colNames = make([]string, 0, len(s.Columns))
	for _, cn := range s.Columns {
		ci := sch.ColIndex(cn)
		if ci < 0 {
			return nil, nil, fmt.Errorf("relational: no column %q in %q", cn, s.Table)
		}
		colIdx = append(colIdx, ci)
		colNames = append(colNames, sch.Columns[ci].Name)
	}
	return colIdx, colNames, nil
}

// selectRows matches, orders and limits the rows of the set being run:
// the source rows the SELECT answers with. The matches and the top-k
// heap are q's scratch, which comes back grown; st carries the work
// accounting described at the top of the file.
func (q *RowsQuery) selectRows() (rows [][]Value, st RowsStats, err error) {
	p, s := q.plan, q.Select
	rows, q.matched, st, err = p.match(&q.t, s, q.matched)
	if err != nil {
		return nil, st, err
	}
	if s.OrderBy != "" {
		if p.oi < 0 {
			return nil, st, fmt.Errorf("relational: no column %q in %q", s.OrderBy, s.Table)
		}
		rows, q.heap = orderRows(rows, q.heap, p.oi, s.Desc, s.Limit)
	}
	if s.Limit > 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	return rows, st, nil
}

// match is selectRows' FROM/WHERE part: no row for a provably empty
// WHERE, else the compiled scan. The matched rows are in row order (and
// may be the table's own rows, only read).
func (p *selectPlan) match(t *Table, s SelectStmt, buf [][]Value) (matched, grown [][]Value, st RowsStats, err error) {
	st.Scanned = len(t.rows)
	if p.pred == nil {
		if s.OrderBy == "" {
			return t.rows, buf, st, nil // the projection only reads it
		}
		// Copy: ORDER BY reorders the matched slice.
		matched = append(buf[:0], t.rows...)
		return matched, matched, st, nil
	}
	matched = buf[:0]
	if p.empty {
		st.Indexed = true
		return matched, matched, st, nil
	}
	for i, row := range t.rows {
		keep, err := p.pred(row)
		if err != nil {
			return nil, matched, st, err
		}
		if keep {
			if cap(matched) == 0 {
				// No more rows can match than are left to scan.
				matched = make([][]Value, 0, len(t.rows)-i)
			}
			matched = append(matched, row)
		}
	}
	return matched, matched, st, nil
}

// project appends the projection of rows to res.Rows, each row cut from
// vals, and returns vals grown. The full-slice expression caps each row,
// so appending to one cannot overwrite the next.
func (p *selectPlan) project(res *Result, vals []Value, rows ...[]Value) []Value {
	for _, row := range rows {
		from := len(vals)
		for _, ci := range p.colIdx {
			vals = append(vals, row[ci])
		}
		res.Rows = append(res.Rows, vals[from:len(vals):len(vals)])
	}
	return vals
}

// answerBytes is the SizeBytes of the Result projecting rows builds,
// counted rather than built.
func (p *selectPlan) answerBytes(rows [][]Value) int {
	n := 0
	for _, c := range p.colNames {
		n += len(c) + 1
	}
	for _, row := range rows {
		for _, ci := range p.colIdx {
			n += row[ci].SizeBytes() + 1
		}
		n++
	}
	return n
}

// Result is a SELECT's answer. Scanned and Indexed are the naive
// executor's accounting (ScanSelect); a RowsQuery reports its accounting
// per set, in RowsStats, and leaves them zero. Columns is read-only: a
// RowsQuery's result shares it with the plan that projected it, which a
// prepared statement shares with every query of it. A RowsQuery's result
// is the query's own, rows and values included, until Reset.
type Result struct {
	Columns []string
	Rows    [][]Value
	Scanned int
	Indexed bool
}

// SizeBytes estimates the result's wire size.
func (r *Result) SizeBytes() int {
	n := 0
	for _, c := range r.Columns {
		n += len(c) + 1
	}
	return n + SizeBytes(r.Rows)
}

// RowsQuery runs one parsed SELECT over row sets held outside any table —
// one per R-GMA ProducerServlet a query reaches — into one Result. Each
// set is answered with the rows, Work accounting and errors of querying
// it once as a fresh table name(cols), but no table is built: column-typed
// rows are borrowed (projection copies values out, so no answer aliases
// them), and a row Insert would refuse fails the set with Insert's error.
// A set's plan is the shared plan of a prepared Select when that was
// compiled for the set's columns; otherwise one is compiled at the first
// set that passes its row checks (see planOver), and again whenever a
// set's columns differ. Result orders and limits the union of the sets'
// answers as one table of all their rows, in set order, would, and
// projects it once. Its zero value with Select set is ready for one
// query on one goroutine; Reset makes it ready for another, keeping its
// scratch, so a pooled RowsQuery answers a query in memory the one
// before it grew.
type RowsQuery struct {
	Select SelectStmt

	t       Table       // the set being run, over borrowed rows
	plan    *selectPlan // the plan of the set being run
	planned []Column    // the columns plan was compiled against
	columns []string    // the result's: those the first set answered with
	held    []heldRow   // the sets' answered rows, in set order
	sets    int         // the sets answered
	// Scratch reused by every set: the sets' rows concatenated or
	// coerced, the matched rows and the top-k heap.
	rows, matched [][]Value
	heap          []seqRow
	// The answer: res, its rows cut from vals.
	res  Result
	vals []Value
}

// Reset empties q for another query, keeping its scratch but none of
// the rows, values or plans it held, so a pooled RowsQuery keeps no
// producer's data alive. The Result q returned is invalid afterwards.
// Set Select before running q again.
func (q *RowsQuery) Reset() {
	clear(q.held[:cap(q.held)])
	clear(q.rows[:cap(q.rows)])
	clear(q.matched[:cap(q.matched)])
	clear(q.heap[:cap(q.heap)])
	clear(q.res.Rows[:cap(q.res.Rows)])
	clear(q.vals[:cap(q.vals)])
	*q = RowsQuery{
		held: q.held[:0], rows: q.rows[:0], matched: q.matched[:0], heap: q.heap[:0],
		res: Result{Rows: q.res.Rows[:0]}, vals: q.vals[:0],
	}
}

// heldRow is a set's answered source row and the plan that projects it.
type heldRow struct {
	row  []Value
	plan *selectPlan
}

// RowsStats is what one set of a RowsQuery cost: the rows Stored (all
// unless one was refused — what a table would have cost to fill), the
// Scanned and Indexed accounting described at the top of the file, and
// the Rows it answered and their Bytes, the SizeBytes of the set's own
// answer.
type RowsStats struct {
	Stored, Scanned int
	Indexed         bool
	Rows, Bytes     int
}

// Run answers the query over one set: the rows of batches, concatenated,
// as a table name with columns cols. After an error the query is spent.
func (q *RowsQuery) Run(name string, cols []Column, batches [][][]Value) (RowsStats, error) {
	t := &q.t
	t.Name, t.Schema.Columns = name, cols
	var rows [][]Value
	owned := len(batches) > 1
	if owned {
		n := 0
		for _, b := range batches {
			n += len(b)
		}
		q.rows = slices.Grow(q.rows[:0], n)
		for _, b := range batches {
			q.rows = append(q.rows, b...)
		}
		rows = q.rows
	} else if len(batches) == 1 {
		rows = batches[0]
	}
	for i, row := range rows {
		if err := t.checkWidth(row); err != nil {
			return RowsStats{Stored: i}, err
		}
		if hasColumnTypes(cols, row) {
			continue
		}
		cv, err := t.coerceRow(row)
		if err != nil {
			return RowsStats{Stored: i}, err
		}
		if !owned {
			q.rows = append(q.rows[:0], rows...)
			rows, owned = q.rows, true
		}
		rows[i] = cv
	}
	t.rows = rows
	if q.plan == nil || !slices.Equal(q.planned, cols) {
		// The rows held so far keep the plan they were answered by.
		p, err := q.Select.planOver(&t.Schema)
		if err != nil {
			return RowsStats{Stored: len(rows)}, err
		}
		q.plan, q.planned = p, cols
	}
	out, st, err := q.selectRows()
	st.Stored = len(rows)
	if err != nil {
		return st, err
	}
	st.Rows, st.Bytes = len(out), q.plan.answerBytes(out)
	if q.sets == 0 {
		q.columns = q.plan.colNames
	}
	q.sets++
	q.held = slices.Grow(q.held, len(out))
	for _, row := range out {
		q.held = append(q.held, heldRow{row, q.plan})
	}
	return st, nil
}

// Result returns the query's answer once its last set has run, nil when
// no set answered; its columns are the first set's. One set is already
// ordered; several are re-sorted stably, Compare errors ranking as equal
// as in orderRows. The Result, its rows and their values are q's own
// scratch: they stay valid until q is Reset, and a RowsQuery never Reset
// leaves them to the caller.
func (q *RowsQuery) Result() *Result {
	if q.sets == 0 {
		return nil
	}
	held := q.held
	if q.sets > 1 && q.Select.OrderBy != "" {
		slices.SortStableFunc(held, func(a, b heldRow) int {
			cmp, err := a.row[a.plan.oi].Compare(b.row[b.plan.oi])
			if err != nil {
				return 0
			}
			if q.Select.Desc {
				return -cmp
			}
			return cmp
		})
	}
	if q.Select.Limit > 0 && len(held) > q.Select.Limit {
		held = held[:q.Select.Limit]
	}
	res := &q.res
	res.Columns = q.columns
	res.Rows = reuse(res.Rows, len(held))
	q.vals = reuse(q.vals, len(held)*len(q.plan.colIdx)) // exact unless a recompile changed the width
	for _, h := range held {
		q.vals = h.plan.project(res, q.vals, h.row)
	}
	return res
}

// reuse returns s emptied, never nil, with room for n elements: s
// itself when it has the room, else a new slice sized exactly.
func reuse[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// hasColumnTypes reports whether every value of row already has its
// column's type, so storing it would leave it unchanged.
func hasColumnTypes(cols []Column, row []Value) bool {
	for i, v := range row {
		if v.Type != cols[i].Type {
			return false
		}
	}
	return true
}

// orderRows applies ORDER BY (and LIMIT, when present) to matched rows,
// in place: a bounded top-k heap, kept in heap, which comes back grown,
// when limit is effective, a stable sort otherwise. Both produce exactly
// the order of a stable sort on the column.
func orderRows(matched [][]Value, heap []seqRow, oi int, desc bool, limit int) ([][]Value, []seqRow) {
	if limit > 0 && limit < len(matched) {
		return topK(matched, heap, oi, desc, limit)
	}
	sort.SliceStable(matched, func(i, j int) bool {
		return rowBefore(matched[i], i, matched[j], j, oi, desc)
	})
	return matched, heap
}

// rowBefore is the total order the stable sort induces: the ORDER BY
// column first (Compare errors rank as equal, as the stable sort's
// comparator treats them), original row position as the tiebreak.
// Positions are unique, so this is a strict total order — which is what
// lets the heap-based top-k reproduce the stable sort's prefix exactly.
func rowBefore(a []Value, ai int, b []Value, bi int, oi int, desc bool) bool {
	cmp, err := a[oi].Compare(b[oi])
	if err != nil {
		cmp = 0
	}
	if desc {
		cmp = -cmp
	}
	if cmp != 0 {
		return cmp < 0
	}
	return ai < bi
}

// seqRow is a matched row and its position, the top-k heap's element.
type seqRow struct {
	row []Value
	seq int
}

// topK returns the first k rows of the stable ORDER BY order without
// sorting the rest: a size-k binary max-heap keyed by "comes last", built
// in heap. The rows come back in matched[:k], which the heap no longer
// reads once every row has been offered to it.
func topK(matched [][]Value, heap []seqRow, oi int, desc bool, k int) ([][]Value, []seqRow) {
	heap = reuse(heap, k)
	// after reports whether x sorts after y (x is worse).
	after := func(x, y seqRow) bool {
		return rowBefore(y.row, y.seq, x.row, x.seq, oi, desc)
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && after(heap[c+1], heap[c]) {
				c++
			}
			if !after(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i, row := range matched {
		e := seqRow{row: row, seq: i}
		if len(heap) < k {
			heap = append(heap, e)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !after(heap[c], heap[p]) {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				c = p
			}
			continue
		}
		if after(e, heap[0]) {
			continue
		}
		heap[0] = e
		siftDown(0)
	}
	// Extract in reverse (worst first) to fill the result front-to-back.
	out := matched[:len(heap)]
	for n := len(heap); n > 0; n-- {
		out[n-1] = heap[0].row
		heap[0] = heap[n-1]
		heap = heap[:n-1]
		siftDown(0)
	}
	return out, heap
}
