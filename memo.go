package gridmon

import (
	"strings"
	"sync"
)

// exprMemo remembers what each query expression parsed to, so a Grid
// parses a repeated expression once: the paper's "data in cache"
// advantage applied to the one step every result-cache miss still
// recomputed. It holds an ldap.Filter per MDS filter, its assertions
// normalized (attribute and value lowered, substring patterns split,
// numeric bounds parsed); a *relational.Prepared per R-GMA SELECT, which
// keeps the plan its first run compiles, so a warm query builds none;
// and a classad.Expr per Hawkeye constraint, keyed by system and text.
// A parse is a pure function of its text, and a plan of the statement
// and the columns it ran over, never of rows; the trees are never
// written after parsing, and a plan is written once, before it is
// published (relational.Prepared). So the memo is never invalidated and
// its values are shared by concurrent queries; Advance, the result cache
// and subscriptions do not touch it. Failed parses are not stored: a bad
// expression fails the way it always did, every time.
type exprMemo struct {
	mu     sync.RWMutex
	parsed map[memoKey]any // guarded by mu
}

// memoKey is one expression of one system. Its expr is a copy of the
// request's text, never the text itself: a decoded request's Expr is a
// substring of its frame, which a stored key (and the tree parsed from
// it, whose names are substrings of it too) would otherwise keep alive.
type memoKey struct {
	system System
	expr   string
}

// The memo's bounds. An expression longer than maxMemoExpr is parsed on
// every query and never stored, which keeps hostile texts (megabytes of
// "(" or "%") out; when maxMemoEntries are stored the next store starts
// a new memo, so a workload with more distinct expressions than that
// costs what it did before the memo, plus one store per query. An entry
// retains at most ~64 bytes per byte of its text (ClassAd "1+1+1…",
// measured on go1.24 linux/amd64, the text's copy included; a SELECT
// with its plan peaks at ~39, "a=1 OR a=1 …", and an LDAP filter at
// ~38, "(&(A=**)(A=**)…)"), so the memo retains at most about
// maxMemoEntries × maxMemoExpr × 65 bytes ≈ 16 MiB, and a few KiB per
// entry for the expressions queries really send.
const (
	maxMemoEntries = 512
	maxMemoExpr    = 512
)

// memoParse returns what parse makes of expr, parsing it only when the
// memo does not hold it yet.
func memoParse[T any](m *exprMemo, system System, expr string, parse func(string) (T, error)) (T, error) {
	if len(expr) > maxMemoExpr {
		return parse(expr)
	}
	key := memoKey{system, expr}
	m.mu.RLock()
	v, ok := m.parsed[key]
	m.mu.RUnlock()
	if ok {
		return v.(T), nil
	}
	key.expr = strings.Clone(expr)
	t, err := parse(key.expr)
	if err != nil {
		return t, err
	}
	m.mu.Lock()
	if m.parsed == nil || len(m.parsed) >= maxMemoEntries {
		m.parsed = make(map[memoKey]any)
	}
	m.parsed[key] = t
	m.mu.Unlock()
	return t, nil
}
