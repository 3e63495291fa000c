package gridmon

import (
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/transport"
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
// query's text, never the text itself: an in-process caller's Expr may be
// a substring of something larger, which a stored key (and the tree
// parsed from it, whose names are substrings of it too) would otherwise
// keep alive.
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
// memo does not hold it yet; an empty expr is the zero T. Text that does
// not parse fails with ErrParse prefixed by what, query or subscription.
func memoParse[T any](m *exprMemo, system System, what, expr string, parse func(string) (T, error)) (t T, err error) {
	if expr == "" {
		return t, nil
	}
	key, keep := memoKey{system, expr}, len(expr) <= maxMemoExpr
	if keep {
		m.mu.RLock()
		v, ok := m.parsed[key]
		m.mu.RUnlock()
		if ok {
			return v.(T), nil
		}
		key.expr = strings.Clone(expr)
	}
	if t, err = parse(key.expr); err != nil {
		return t, transport.Errf(transport.CodeParse, "%s: %v", what, err)
	}
	if keep {
		m.mu.Lock()
		if m.parsed == nil || len(m.parsed) >= maxMemoEntries {
			m.parsed = make(map[memoKey]any)
		}
		m.parsed[key] = t
		m.mu.Unlock()
	}
	return t, nil
}

// requests holds the grid.query strings this process's servers have
// seen, owned, so a cache key, the memo or a Router branch may keep one:
// Hosts, Exprs, and Attrs lists (shared read-only) keyed by their wire
// bytes, each beside its joined form. Values over maxMemoExpr bytes are
// never stored; past maxInternEntries or maxInternBytes it starts over.
var requests requestStrings

const (
	maxInternEntries = 2048
	maxInternBytes   = 512 << 10
)

type requestStrings struct {
	mu    sync.RWMutex
	strs  map[string]string   // guarded by mu
	lists map[string][]string // guarded by mu
	bytes int                 // the text the maps hold; guarded by mu
}

// decodeQuery decodes a grid.query body into q, its strings resolved
// through t under one read lock: what a copying decode gives (FuzzQueryDecode).
func (t *requestStrings) decodeQuery(body []byte, q *Query) error {
	d := binenc.NewDec(body)
	system, role, host, expr := d.Bytes(), d.Bytes(), d.Bytes(), d.Bytes()
	from := len(body) - d.Len()
	n := d.Count(d.Uvarint(), 1) // a string is at least its one length byte
	for i := 0; i < n; i++ {
		d.Bytes()
	}
	if err := d.Err(); err != nil {
		return err
	}
	attrs := body[from : len(body)-d.Len()]
	q.System = constant(system, MDS, RGMA, Hawkeye)
	q.Role = constant(role, "", RoleInformationServer, RoleAggregateServer, RoleDirectoryServer, RoleInformationCollector)
	var okHost, okExpr, okAttrs bool
	t.mu.RLock()
	q.Host, okHost = t.strs[string(host)]
	q.Expr, okExpr = t.strs[string(expr)]
	q.Attrs, okAttrs = t.lists[string(attrs)]
	t.mu.RUnlock()
	if !okHost {
		q.Host = t.keep(string(host), nil)
	}
	if !okExpr {
		q.Expr = t.keep(string(expr), nil)
	}
	if !okAttrs && n > 0 {
		d := binenc.NewDecText(attrs)
		q.Attrs = decodeWireStrings(&d)
		t.keep(string(attrs), q.Attrs)
	}
	return nil
}

// keep stores s, or list under its wire bytes s and its joined form
// beside it, and returns s.
func (t *requestStrings) keep(s string, list []string) string {
	if len(s) > maxMemoExpr {
		return s
	}
	joined, size := s, len(s)
	if list != nil {
		joined = strings.Join(list, "\x00")
		size += len(s) + len(joined) // the names are cut from a copy of s
	}
	t.mu.Lock()
	if t.strs == nil || len(t.strs)+len(t.lists)+2 > maxInternEntries || t.bytes+size > maxInternBytes {
		t.strs, t.lists, t.bytes = make(map[string]string), make(map[string][]string), 0
	}
	if list != nil {
		t.lists[s] = list
	}
	t.strs[joined] = joined
	t.bytes += size
	t.mu.Unlock()
	return s
}

// joined returns strings.Join(attrs, "\x00"), t's copy when it has one.
func (t *requestStrings) joined(attrs []string) string {
	if len(attrs) < 2 {
		return strings.Join(attrs, "\x00")
	}
	var buf [256]byte
	b := buf[:0]
	for i, a := range attrs {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, a...)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	return string(b)
}

// constant returns the one of consts b spells, or a copy of b.
func constant[T ~string](b []byte, consts ...T) T {
	for _, c := range consts {
		if string(b) == string(c) {
			return c
		}
	}
	return T(b)
}
