package gridmon

import (
	"strings"

	"repro/internal/binenc"
	"repro/internal/transport"
)

// exprMemo holds what each query expression parsed to, keyed by system
// and text, so a Grid parses a repeated expression once: an ldap.Filter
// per MDS filter, a *relational.Prepared per R-GMA SELECT (with the plan
// its first run compiled) and a classad.Expr per Hawkeye constraint. A
// parse depends on its text alone and is never written after it is
// published, so the memo is never invalidated and its values are shared;
// a failed parse is not stored. It keeps maxMemoEntries expressions of
// at most maxMemoExpr bytes.
type exprMemo = boundedMap[memoKey, any]

func newExprMemo() exprMemo {
	return newBoundedMap(maxMemoEntries, maxMemoEntries*maxMemoExpr, maxMemoExpr,
		func(k memoKey, _ any) int { return len(k.expr) })
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

// An expression over maxMemoExpr bytes is parsed on every query, which
// keeps hostile texts out. An entry retains at most ~64 bytes per byte
// of its text (ClassAd "1+1+1…", go1.24 linux/amd64; a SELECT with its
// plan ~39, an LDAP filter ~38), so the memo holds at most about 16 MiB.
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
	key := memoKey{system, expr}
	if len(expr) <= maxMemoExpr { // a longer one is never kept: no lookup, no copy
		if v, ok := m.get(key); ok {
			return v.(T), nil
		}
		key.expr = strings.Clone(expr)
	}
	if t, err = parse(key.expr); err != nil {
		return t, transport.Errf(transport.CodeParse, "%s: %v", what, err)
	}
	m.put(key, t)
	return t, nil
}

// requests holds the grid.query strings this process's servers have
// seen, owned, so a cache key, the memo or a Router branch may keep one:
// Host and Expr values, and Attrs lists (shared read-only) keyed by
// their wire bytes, each beside its joined form. A request stores up to
// three strings per list, so the strings take three quarters of
// maxInternEntries and the lists one; each takes half of maxInternBytes,
// a list counting its key and the copy its names are cut from. A value
// over maxMemoExpr bytes is never kept.
var requests = newRequestStrings()

const (
	maxInternEntries = 2048
	maxInternBytes   = 512 << 10
)

type requestStrings struct {
	strs  boundedMap[string, string]
	lists boundedMap[string, []string]
}

func newRequestStrings() requestStrings {
	return requestStrings{
		strs: newBoundedMap(maxInternEntries*3/4, maxInternBytes/2, maxMemoExpr, keyLen[string]),
		lists: newBoundedMap(maxInternEntries/4, maxInternBytes/2, 2*maxMemoExpr,
			func(k string, _ []string) int { return 2 * len(k) }),
	}
}

// decodeQuery decodes a grid.query body into q, its strings resolved
// through t: what a copying decode gives (FuzzQueryDecode).
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
	q.Host, q.Expr, q.Attrs = intern(&t.strs, host), intern(&t.strs, expr), nil
	if n == 0 {
		return nil
	}
	var ok bool
	if q.Attrs, ok = lookup(&t.lists, attrs); !ok {
		d := binenc.NewDecText(attrs)
		q.Attrs = decodeWireStrings(&d)
		t.lists.put(string(attrs), q.Attrs)
		joined := strings.Join(q.Attrs, "\x00")
		t.strs.put(joined, joined)
	}
	return nil
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
	if s, ok := lookup(&t.strs, b); ok {
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
