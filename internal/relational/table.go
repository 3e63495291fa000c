package relational

import (
	"fmt"
	"sort"
	"strings"
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

// Table is an in-memory relation: a header and rows, each stored
// coerced to its columns' types (Insert). It has no index. A RowsQuery
// runs its plan over a Table header on borrowed rows; ScanSelect, the
// reference RowsQuery is held to, reads a filled one.
type Table struct {
	Name   string
	Schema Schema
	rows   [][]Value
}

// NewTable creates an empty table.
func NewTable(name string, cols []Column) *Table {
	return &Table{Name: name, Schema: Schema{Columns: cols}}
}

// Insert appends a row after coercing each value to its column type.
func (t *Table) Insert(row []Value) error {
	if err := t.checkWidth(row); err != nil {
		return err
	}
	stored, err := t.coerceRow(row)
	if err != nil {
		return err
	}
	t.rows = append(t.rows, stored)
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
	colIdx, colNames, err := projectionPlan(&t.Schema, s)
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
