package ldap_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ldap"
)

// projectionNames are the attribute names the random entries and
// projections draw from: MDS names in any case, and names whose folding
// only strings.ToLower gets right — 'ſ' (which EqualFold matches to 's'),
// the Kelvin sign (which lowers to ASCII 'k'), 'İ', and invalid UTF-8.
var projectionNames = []string{
	"objectclass", "Mds-Cpu-Free-1minX100", "Mds-Service", "Empty",
	"ſ", "s", "S", "K", "k", "K", "İ", "i", "I", "\xff", "\xc4\xb0", "",
}

// respell returns name, upper-cased, lower-cased or with each ASCII
// letter's case picked at random.
func respell(rng *rand.Rand, name string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.ToUpper(name)
	case 1:
		return strings.ToLower(name)
	case 2:
		b := []byte(name)
		for i, c := range b {
			if rng.Intn(2) == 0 && ('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
				b[i] = c ^ 0x20
			}
		}
		return string(b)
	}
	return name
}

// randomProjection is nil, empty, [""], or a few respelled names —
// duplicates and names no entry holds included.
func randomProjection(rng *rand.Rand) []string {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []string{}
	case 2:
		return []string{""}
	}
	attrs := []string{}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		attrs = append(attrs, respell(rng, projectionNames[rng.Intn(len(projectionNames))]))
	}
	if rng.Intn(3) == 0 {
		attrs = append(attrs, "nosuch", attrs[0])
	}
	return attrs
}

// TestMDSAnswerProjectsLikeProjectAll: a query part decodes the stored
// entries in place. For random entries and projections, the answer it
// gets is the answer decoding the ProjectAll copies got, span for span
// and pair for pair, and the size it counts is the copies' size.
func TestMDSAnswerProjectsLikeProjectAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		dit := ldap.NewDIT()
		for i := rng.Intn(8); i > 0; i-- {
			e := ldap.NewEntry(ldap.MustParseDN(fmt.Sprintf("Mds-Host-hn=h%d, Mds-Vo-name=local, o=grid", i)))
			for j := rng.Intn(7); j > 0; j-- {
				// Another spelling of a name already held adds a value.
				e.Add(respell(rng, projectionNames[rng.Intn(len(projectionNames))]), fmt.Sprint(rng.Intn(3)))
			}
			if err := dit.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		entries, _ := dit.Search(nil, ldap.ScopeSub, nil)
		attrs := randomProjection(rng)
		copies := ldap.ProjectAll(entries, attrs)
		var got, want core.Answer
		core.MDSAnswer(&got, entries, attrs)
		core.MDSAnswer(&want, copies, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MDSAnswer(entries, %q):\n got %+v\nwant %+v", attrs, got, want)
		}
		if got, want := ldap.SizeBytes(entries, attrs), ldap.SizeBytes(copies, nil); got != want {
			t.Fatalf("SizeBytes(entries, %q) = %d, the ProjectAll copies measure %d", attrs, got, want)
		}
	}
}
