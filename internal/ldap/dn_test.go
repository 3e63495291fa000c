package ldap

import (
	"strings"
	"testing"
	"testing/quick"
)

// oracleNorm is DN.Norm as it was before it folded ASCII into one
// buffer: every RDN through strings.ToLower, then joined.
func oracleNorm(d DN) string {
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = strings.ToLower(r.Attr) + "=" + strings.ToLower(strings.TrimSpace(r.Value))
	}
	return strings.Join(parts, ",")
}

// TestDNNormMatchesOracle: mixed case, padded values, non-ASCII text
// (whose lower case changes length, or which TrimSpace trims) and the
// root all normalize as strings.ToLower did.
func TestDNNormMatchesOracle(t *testing.T) {
	dns := []DN{
		nil,
		{},
		MustParseDN("Mds-Host-hn=Lucky7, Mds-Vo-name=local, o=Grid"),
		{{Attr: "O", Value: "  Grid \t"}},
		{{Attr: "Mds-Host-hn", Value: "\vNODE01\r\n"}, {Attr: "o", Value: "grid"}},
		{{Attr: "", Value: ""}, {Attr: "", Value: " "}},
		{{Attr: "cn", Value: "ÉCOLE"}, {Attr: "O", Value: "GRID"}},
		{{Attr: "o", Value: "GRID"}, {Attr: "cn", Value: " Straße\u0085"}},
		{{Attr: "\u0130D", Value: "x"}},      // lower case is longer
		{{Attr: "cn", Value: "\u212Aelvin"}}, // the Kelvin sign folds to ASCII k
		{{Attr: "cn", Value: "bad\xffutf8"}},
	}
	for _, d := range dns {
		if got, want := d.Norm(), oracleNorm(d); got != want {
			t.Errorf("%q: Norm %q, oracle %q", []RDN(d), got, want)
		}
	}
	f := func(attrs, values []string) bool {
		d := make(DN, min(len(attrs), len(values)))
		for i := range d {
			d[i] = RDN{Attr: attrs[i], Value: values[i]}
		}
		return d.Norm() == oracleNorm(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDNNormOneAlloc: an ASCII DN normalizes in one allocation.
func TestDNNormOneAlloc(t *testing.T) {
	d := MustParseDN("Mds-Device-Group-name=cpu, Mds-Host-hn=Lucky7, Mds-Vo-name=local, o=grid")
	if n := testing.AllocsPerRun(100, func() { _ = d.Norm() }); n != 1 {
		t.Fatalf("Norm: %.0f allocations, want 1", n)
	}
}

// TestInSubtree holds the suffix test to the concatenation it replaced.
func TestInSubtree(t *testing.T) {
	keys := []string{"o=grid", "mds-vo-name=local,o=grid", "a=o=grid", "xo=grid", ",o=grid", "o=gri", "", "o=grid,o=grid"}
	for _, k := range keys {
		for _, base := range []string{"o=grid", "mds-vo-name=local,o=grid", "grid"} {
			want := k == base || strings.HasSuffix(k, ","+base)
			if got := inSubtree(k, base); got != want {
				t.Errorf("inSubtree(%q, %q) = %v, want %v", k, base, got, want)
			}
		}
	}
}
