package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
	// cacheMu guards the statement and plan caches: Exec populates them
	// on the read path, so concurrent read-locked SELECTs (the grid
	// facade's parallel query path) race on the maps. Table DDL and row
	// mutation still require external exclusion.
	cacheMu sync.Mutex
	stmts   map[string]Statement   // Exec's parsed-statement cache; guarded by cacheMu
	plans   map[string]*selectPlan // Exec's compiled SELECT plans; guarded by cacheMu
	// MaxRowsPerTable, when positive, applies a row cap to newly created
	// tables (see Table.MaxRows).
	MaxRowsPerTable int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Table returns the named table (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// CreateTable creates a table, failing on duplicates.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("relational: table %q already exists", name)
	}
	t := NewTable(name, cols)
	t.MaxRows = db.MaxRowsPerTable
	db.tables[key] = t
	return t, nil
}

// DropTable removes a table, reporting whether it existed.
func (db *DB) DropTable(name string) bool {
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return false
	}
	delete(db.tables, key)
	return true
}

// TableNames lists table names in sorted order.
func (db *DB) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// Result is the outcome of executing a statement.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Affected counts inserted or deleted rows for write statements.
	Affected int
	// Scanned counts the logical scan cost: the rows a scan-based
	// executor examines, the work measure the testbed charges CPU for.
	// It is identical whether the planner served the predicate from a
	// hash index or by scanning, so simulated results are independent of
	// the execution strategy.
	Scanned int
	// IndexHits counts the candidate rows fetched from hash-index
	// postings when the planner took the fast path (0 on a scan).
	IndexHits int
	// Indexed reports that the planner served the predicate from a hash
	// index (IndexHits may legitimately be 0 on an empty bucket).
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

// Exec parses and executes one SQL statement. Parsed statements — and,
// for SELECTs, their compiled plans — are cached by source text
// (statements are immutable once parsed), so the monitoring pattern —
// the same query re-issued every few seconds — skips the lexer, the
// predicate compiler and the planner after the first execution. A
// cached plan is dropped when its table identity changes (DROP +
// CREATE).
func (db *DB) Exec(src string) (*Result, error) {
	db.cacheMu.Lock()
	st, ok := db.stmts[src]
	db.cacheMu.Unlock()
	if !ok {
		var err error
		st, err = Parse(src)
		if err != nil {
			return nil, err
		}
		db.cacheMu.Lock()
		if db.stmts == nil {
			db.stmts = make(map[string]Statement)
		}
		if len(db.stmts) >= maxCachedStmts {
			db.stmts = make(map[string]Statement)
			db.plans = nil
		}
		db.stmts[src] = st
		db.cacheMu.Unlock()
	}
	sel, isSel := st.(SelectStmt)
	if !isSel {
		return db.Run(st)
	}
	db.cacheMu.Lock()
	p, ok := db.plans[src]
	db.cacheMu.Unlock()
	if ok {
		if cur, exists := db.Table(sel.Table); exists && cur == p.table {
			return p.exec(sel)
		}
	}
	p, err := db.planSelect(sel)
	if err != nil {
		return nil, err
	}
	db.cacheMu.Lock()
	if db.plans == nil {
		db.plans = make(map[string]*selectPlan)
	}
	db.plans[src] = p
	db.cacheMu.Unlock()
	return p.exec(sel)
}

// maxCachedStmts bounds the per-DB statement cache; hitting the cap
// (distinct one-off statements, not the monitoring pattern) resets it.
const maxCachedStmts = 256

// Run executes a parsed statement.
func (db *DB) Run(st Statement) (*Result, error) {
	switch s := st.(type) {
	case CreateStmt:
		if _, err := db.CreateTable(s.Table, s.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case InsertStmt:
		return db.runInsert(s)
	case SelectStmt:
		return db.runSelect(s)
	case DeleteStmt:
		return db.runDelete(s)
	case UpdateStmt:
		return db.runUpdate(s)
	}
	return nil, fmt.Errorf("relational: unknown statement type %T", st)
}

func (db *DB) runInsert(s InsertStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	row := s.Values
	if len(s.Columns) > 0 {
		if len(s.Columns) != len(s.Values) {
			return nil, fmt.Errorf("relational: %d columns but %d values", len(s.Columns), len(s.Values))
		}
		row = make([]Value, len(t.Schema.Columns))
		seen := make([]bool, len(t.Schema.Columns))
		for i, cn := range s.Columns {
			ci := t.Schema.ColIndex(cn)
			if ci < 0 {
				return nil, fmt.Errorf("relational: no column %q in %q", cn, s.Table)
			}
			row[ci] = s.Values[i]
			seen[ci] = true
		}
		for ci, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("relational: column %q not supplied", t.Schema.Columns[ci].Name)
			}
		}
	}
	if err := t.Insert(row); err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

// projectionPlan resolves the SELECT column list against the table.
func projectionPlan(t *Table, s SelectStmt) (colIdx []int, colNames []string, err error) {
	if len(s.Columns) == 0 {
		colIdx = make([]int, len(t.Schema.Columns))
		for i := range colIdx {
			colIdx[i] = i
		}
		return colIdx, t.Schema.Names(), nil
	}
	colIdx = make([]int, 0, len(s.Columns))
	colNames = make([]string, 0, len(s.Columns))
	for _, cn := range s.Columns {
		ci := t.Schema.ColIndex(cn)
		if ci < 0 {
			return nil, nil, fmt.Errorf("relational: no column %q in %q", cn, s.Table)
		}
		colIdx = append(colIdx, ci)
		colNames = append(colNames, t.Schema.Columns[ci].Name)
	}
	return colIdx, colNames, nil
}

// runSelect executes a SELECT through the planner (plan.go): compiled
// predicates, a hash-index probe for provably safe equality conjuncts,
// and top-k selection for ORDER BY + LIMIT. It returns exactly what the
// naive executor (runSelectScan, kept as the differential-test oracle)
// returns, with the same Scanned accounting.
func (db *DB) runSelect(s SelectStmt) (*Result, error) {
	p, err := db.planSelect(s)
	if err != nil {
		return nil, err
	}
	return p.exec(s)
}

// runSelectScan is the naive evaluate-every-row executor the planner
// replaced. It is retained as the oracle for the differential tests in
// plan_test.go: the planner must return byte-identical results.
func (db *DB) runSelectScan(s SelectStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	colIdx, colNames, err := projectionPlan(t, s)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: colNames}
	var matched [][]Value
	for _, row := range t.Rows() {
		res.Scanned++
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
	for _, row := range matched {
		out := make([]Value, len(colIdx))
		for i, ci := range colIdx {
			out[i] = row[ci]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func (db *DB) runUpdate(s UpdateStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	// Resolve and coerce assignments up front.
	colIdx := make([]int, len(s.Columns))
	vals := make([]Value, len(s.Columns))
	for i, cn := range s.Columns {
		ci := t.Schema.ColIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("relational: no column %q in %q", cn, s.Table)
		}
		cv, err := s.Values[i].Coerce(t.Schema.Columns[ci].Type)
		if err != nil {
			return nil, fmt.Errorf("relational: column %q: %v", cn, err)
		}
		colIdx[i] = ci
		vals[i] = cv
	}
	res := &Result{}
	for _, row := range t.Rows() {
		res.Scanned++
		if s.Where != nil {
			ok, err := s.Where.Eval(&t.Schema, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for i, ci := range colIdx {
			row[ci] = vals[i]
		}
		res.Affected++
	}
	if res.Affected > 0 {
		t.idxMu.Lock()
		for ci := range t.index {
			t.createIndexLocked(ci)
		}
		t.idxMu.Unlock()
	}
	return res, nil
}

func (db *DB) runDelete(s DeleteStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	var evalErr error
	scanned := 0
	removed := t.DeleteWhere(func(row []Value) bool {
		scanned++
		if s.Where == nil {
			return true
		}
		ok, err := s.Where.Eval(&t.Schema, row)
		if err != nil && evalErr == nil {
			evalErr = err
		}
		return ok
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return &Result{Affected: removed, Scanned: scanned}, nil
}
