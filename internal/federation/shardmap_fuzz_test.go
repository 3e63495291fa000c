package federation_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/federation"
)

// FuzzShardMap: ParseShardMap, which reads the -shards flag, never
// panics, and a map it accepts, rendered back in the flag syntax
// (replicas joined by "/", shards by ","), parses to an equal map. The
// checked-in corpus holds an empty input, a lone ",", an empty replica
// ("a//b"), addresses with surrounding spaces and one shard with many
// replicas.
func FuzzShardMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := federation.ParseShardMap(s)
		if err != nil {
			return
		}
		shards := make([]string, len(m.Shards))
		for i, sh := range m.Shards {
			shards[i] = strings.Join(sh.Addrs, "/")
		}
		canon := strings.Join(shards, ",")
		again, err := federation.ParseShardMap(canon)
		if err != nil {
			t.Fatalf("%q parsed to %+v, rendered as %q, which does not parse: %v", s, m, canon, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("%q parsed to %+v, rendered as %q, which parses to %+v", s, m, canon, again)
		}
	})
}
