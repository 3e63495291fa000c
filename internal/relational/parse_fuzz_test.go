package relational

import (
	"strings"
	"testing"

	"repro/internal/allocmeter"
)

// deepWhere nests one comparison in n pairs of parentheses.
func deepWhere(n int) string {
	return "SELECT * FROM t WHERE " + strings.Repeat("(", n) + "a = 1" + strings.Repeat(")", n)
}

// TestParseDeepNestingIsError: a WHERE clause nested past maxNesting is
// an ordinary parse error. Unbounded, the 4 Mi-parenthesis statement —
// it fits in one v3 frame — overflowed the goroutine stack, which kills
// the process rather than panicking.
func TestParseDeepNestingIsError(t *testing.T) {
	if _, err := Parse(deepWhere(maxNesting - 1)); err != nil {
		t.Fatalf("%d levels: %v", maxNesting-1, err)
	}
	for name, src := range map[string]string{
		"balanced":  deepWhere(maxNesting),
		"NOT chain": "SELECT * FROM t WHERE " + strings.Repeat("NOT ", maxNesting) + "a = 1",
		"4 Mi (":    "SELECT * FROM t WHERE " + strings.Repeat("(", 4<<20) + "a = 1",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%s: err = %v, want the nesting bound", name, err)
		}
	}
}

// FuzzSQLParse: every input parses or is refused with an error — never a
// panic, never a stack overflow — and the bytes a parse allocates stay
// within a fixed multiple of the input. The parser lexes one token
// ahead, so what it allocates is the statement it builds (a SELECT's
// column list, a 16-byte string header per two bytes of text and about
// 40 bytes a byte while append grows it, is the widest). The CREATE,
// INSERT, UPDATE and DELETE seeds stay as statements Parse refuses.
func FuzzSQLParse(f *testing.F) {
	for _, src := range selectCorpus {
		f.Add(src)
	}
	for _, src := range []string{
		"",
		"CREATE TABLE t (a INT, b VARCHAR(64), c REAL)",
		"INSERT INTO t (a, b) VALUES (1, 'it''s')",
		"UPDATE t SET a = -1.5e3, b = 'x' WHERE NOT (a < 2 OR b LIKE '_%')",
		"DELETE FROM t WHERE a <> 1;",
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT a FROM t LIMIT 99999999999999999999",
		deepWhere(maxNesting - 1),
		deepWhere(maxNesting),
		"SELECT * FROM t WHERE " + strings.Repeat("NOT ", maxNesting) + "a = 1",
		"SELECT * FROM t WHERE " + strings.Repeat("(", 64<<10) + "a = 1",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		budget := uint64(256*len(src) + 64<<10)
		if n, ok := allocmeter.Bytes(budget, nil, func() { Parse(src) }); !ok {
			t.Fatalf("parsing %d bytes allocated %d", len(src), n)
		}
	})
}
