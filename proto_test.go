package gridmon

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/leakcheck"
)

// protoQueries is a representative slice of the query surface across
// all three systems and dialects.
var protoQueries = []Query{
	{System: MDS, Role: RoleInformationServer, Host: "lucky3", Expr: "(objectclass=MdsCpu)"},
	{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}},
	{System: MDS, Role: RoleDirectoryServer},
	{System: RGMA, Role: RoleInformationServer, Expr: "SELECT host, metric, value FROM siteinfo WHERE value >= 50"},
	{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"},
	{System: Hawkeye, Role: RoleInformationServer, Host: "lucky7"},
	{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
}

// TestProtoQueryEquivalence: the same query sequence against
// identically-constructed grids — in-process and over the wire with the
// binary codec (RemoteGrid.Query) — answers identically except for
// Elapsed. JSON stays the codec's reference for nil-ness: the in-process
// answer survives a JSON round trip unchanged (jsonRT), so the binary
// answer decodes every slice nil or empty exactly as JSON would.
func TestProtoQueryEquivalence(t *testing.T) {
	leakcheck.Check(t)
	local := newTestGrid(t)
	remote := serveGrid(t, newTestGrid(t))
	ctx := context.Background()

	for _, q := range protoQueries {
		want, err := local.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s in-process: %v", q.System, q.Role, err)
		}
		if rt := jsonRT(t, *want); !reflect.DeepEqual(*want, rt) {
			t.Errorf("%s/%s in-process answer changes through JSON\nin-process: %+v\nJSON:       %+v",
				q.System, q.Role, *want, rt)
		}
		got, err := remote.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s binary-bodied: %v", q.System, q.Role, err)
		}
		// Elapsed legitimately differs (it includes the round trip).
		norm := *got
		norm.Elapsed = want.Elapsed
		if !reflect.DeepEqual(*want, norm) {
			t.Errorf("%s/%s over the wire differs\nin-process: %+v\nremote:     %+v",
				q.System, q.Role, *want, norm)
		}
	}
}

// TestProtoSubscribeEquivalence: the same subscription driven through
// the same Advance sequence delivers the identical ordered event
// sequence in-process and over the wire — batched event frames
// reassemble to exactly the per-event in-process deliveries.
func TestProtoSubscribeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		sub  Subscription
		want int
	}{
		{"MDS", Subscription{System: MDS, Expr: "(objectclass=MdsCpu)", PollEvery: 2}, 1},
		{"RGMA", Subscription{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 0"}, 18},
		{"Hawkeye", Subscription{System: Hawkeye, Expr: "TARGET.CpuLoad >= 0"}, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			grids := make([]*Grid, 2)
			clocks := make([]*float64, 2)
			for i := range grids {
				grids[i], clocks[i] = steppedGrid(t)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			streams := make([]*Stream, 2)
			for i, s := range []Subscriber{grids[0], serveGrid(t, grids[1])} {
				st, err := s.Subscribe(ctx, tc.sub)
				if err != nil {
					t.Fatalf("subscriber %d: %v", i, err)
				}
				t.Cleanup(func() { st.Close() })
				streams[i] = st
			}
			for _, tick := range []float64{5, 10} {
				for i, g := range grids {
					*clocks[i] = tick
					if err := g.Advance(tick); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := collectEvents(t, streams[0], tc.want)
			got := collectEvents(t, streams[1], tc.want)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s event sequence differs\nin-process:    %+v\nover the wire: %+v",
					tc.name, want, got)
			}
		})
	}
}
