package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list with case-insensitive lookup.
type Schema struct {
	Columns []Column
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Table is an in-memory relation: each row is stored coerced to its
// columns' types, and hash indexes are built on request (CreateIndex).
type Table struct {
	Name   string
	Schema Schema
	rows   [][]Value
	// idxMu guards index: CreateIndex, Insert and DeleteWhere write it and
	// LookupIndexed reads it, so lookups stay safe beside an index build.
	// Row mutation still requires external exclusion (the owner's write
	// lock; the Registry's mu).
	idxMu sync.Mutex
	// index maps an indexed column position to value-key -> row numbers.
	index map[int]map[string][]int
}

// NewTable creates an empty table.
func NewTable(name string, cols []Column) *Table {
	return &Table{
		Name:   name,
		Schema: Schema{Columns: cols},
		index:  make(map[int]map[string][]int),
	}
}

// CreateIndex builds (or rebuilds) a hash index on the named column,
// which Insert and DeleteWhere then keep current and LookupIndexed reads.
// The R-GMA Registry indexes its producers by table name.
func (t *Table) CreateIndex(col string) error {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relational: no column %q in table %q", col, t.Name)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.createIndexLocked(ci)
	return nil
}

// createIndexLocked builds (or rebuilds) the index on column position ci.
// Callers hold idxMu.
func (t *Table) createIndexLocked(ci int) {
	idx := make(map[string][]int)
	for rowNum, row := range t.rows {
		key := indexKey(row[ci])
		idx[key] = append(idx[key], rowNum)
	}
	t.index[ci] = idx
}

// indexKey is the hash key for one value. Strings are case-folded, so
// string lookups are case-insensitive supersets of Compare equality, and
// a string's key is its folded text itself: for one that is already
// lower case that is the stored string, so (re)building the index over a
// column of lower-case names allocates no key per row. Every other value
// is keyed by a NUL byte and its SQL literal, with negative zero
// normalized so -0.0 and +0.0 (numerically equal to Compare) share a
// bucket with the integer 0; a string that itself begins with NUL gets
// NUL and a quote in front, which no literal begins with — so a string
// never shares a bucket with a number or NULL, whatever its text.
func indexKey(v Value) string {
	if v.Type == StringType {
		if strings.HasPrefix(v.S, "\x00") {
			return "\x00'" + strings.ToLower(v.S)
		}
		return strings.ToLower(v.S)
	}
	if v.Type == RealType && v.R == 0 {
		return "\x000"
	}
	var buf [32]byte // NUL and the longest number, a 24-byte real
	return string(v.AppendTo(append(buf[:0], 0)))
}

// Len reports the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Insert appends a row after coercing each value to its column type.
func (t *Table) Insert(row []Value) error {
	if err := t.checkWidth(row); err != nil {
		return err
	}
	stored, err := t.coerceRow(row)
	if err != nil {
		return err
	}
	rowNum := len(t.rows)
	t.rows = append(t.rows, stored)
	t.idxMu.Lock()
	for ci, idx := range t.index {
		key := indexKey(stored[ci])
		idx[key] = append(idx[key], rowNum)
	}
	t.idxMu.Unlock()
	return nil
}

// checkWidth fails a row that does not have one value per column.
func (t *Table) checkWidth(row []Value) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("relational: table %q expects %d values, got %d",
			t.Name, len(t.Schema.Columns), len(row))
	}
	return nil
}

// coerceRow returns a copy of row with each value converted to its
// column's type, failing on a value that does not convert.
func (t *Table) coerceRow(row []Value) ([]Value, error) {
	stored := make([]Value, len(row))
	for i, v := range row {
		cv, err := v.Coerce(t.Schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("relational: column %q: %v", t.Schema.Columns[i].Name, err)
		}
		stored[i] = cv
	}
	return stored, nil
}

// Rows returns the backing rows; callers must not mutate them.
func (t *Table) Rows() [][]Value { return t.rows }

// ScanSelect answers s over t the naive way — evaluate the WHERE on every
// row, sort the matches stably, limit, project — and is kept as the
// reference the planner's differential tests hold RowsQuery to. s.Table
// names t only in error messages. Scanned is t's row count; Indexed is
// the planner's verdict that the WHERE is provably empty, though every
// row is still evaluated here.
func ScanSelect(t *Table, s SelectStmt) (*Result, error) {
	colIdx, colNames, err := projectionPlan(t, s)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: colNames, Scanned: len(t.rows)}
	res.Indexed = s.Where != nil && provablyEmpty(&t.Schema, s.Where)
	var matched [][]Value
	for _, row := range t.rows {
		if s.Where != nil {
			ok, err := s.Where.Eval(&t.Schema, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		matched = append(matched, row)
	}
	if s.OrderBy != "" {
		oi := t.Schema.ColIndex(s.OrderBy)
		if oi < 0 {
			return nil, fmt.Errorf("relational: no column %q in %q", s.OrderBy, s.Table)
		}
		sort.SliceStable(matched, func(i, j int) bool {
			cmp, err := matched[i][oi].Compare(matched[j][oi])
			if err != nil {
				return false
			}
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if s.Limit > 0 && len(matched) > s.Limit {
		matched = matched[:s.Limit]
	}
	res.Rows = make([][]Value, 0, len(matched))
	for _, row := range matched {
		out := make([]Value, len(colIdx))
		for i, ci := range colIdx {
			out[i] = row[ci]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// LookupIndexed returns the rows whose indexed column equals v, and
// reports whether an index on that column exists. The scanned count is 0
// for indexed lookups — the cost distinction the paper draws between the
// Hawkeye Manager and the LDAP backend.
func (t *Table) LookupIndexed(col string, v Value) (rows [][]Value, ok bool) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return nil, false
	}
	t.idxMu.Lock()
	idx, ok := t.index[ci]
	var cand []int
	if ok {
		cand = idx[indexKey(v)]
	}
	t.idxMu.Unlock()
	if !ok {
		return nil, false
	}
	for _, rn := range cand {
		rows = append(rows, t.rows[rn])
	}
	return rows, true
}

// DeleteWhere removes every row for which pred returns true, returning the
// count removed. Indexes are rebuilt afterwards.
func (t *Table) DeleteWhere(pred func(row []Value) bool) int {
	kept := t.rows[:0]
	removed := 0
	for _, row := range t.rows {
		if pred(row) {
			removed++
		} else {
			kept = append(kept, row)
		}
	}
	t.rows = kept
	if removed > 0 {
		t.idxMu.Lock()
		for ci := range t.index {
			t.createIndexLocked(ci)
		}
		t.idxMu.Unlock()
	}
	return removed
}

// SizeBytes estimates the wire size of a row set.
func SizeBytes(rows [][]Value) int {
	n := 0
	for _, row := range rows {
		for _, v := range row {
			n += v.SizeBytes() + 1
		}
		n++
	}
	return n
}
