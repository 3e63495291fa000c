package rgma

import (
	"fmt"
	"testing"
)

// BenchmarkConsumerQuery mediates one SELECT over 3, 16 and 48 producer
// servlets of three monitoring producers each (the bench deployment's
// shape). One plan and one result serve every servlet, so allocs/op
// should stay nearly flat as the servlets grow; what still grows is the
// Registry lookup's answer and the source rows the merge holds.
func BenchmarkConsumerQuery(b *testing.B) {
	for _, n := range []int{3, 16, 48} {
		servlets := make([]*ProducerServlet, n)
		for s := range servlets {
			host := fmt.Sprintf("node%02d", s+1)
			ps := NewProducerServlet(host + ":8088")
			for p := 0; p < 3; p++ {
				ps.Host(NewMonitoringProducer(fmt.Sprintf("%s-p%d", host, p), "siteinfo", host, 5))
			}
			servlets[s] = ps
		}
		cs := oracleConsumer(b, servlets...)
		// The producers regenerate their rows once per instant: do it
		// before timing, so one iteration (make bench) shows the query.
		if _, _, err := cs.Query(oracleNow, "SELECT * FROM siteinfo"); err != nil {
			b.Fatal(err)
		}
		for _, shape := range []struct{ name, sql string }{
			{"where", "SELECT host, value FROM siteinfo WHERE value >= 50"},
			{"plain", "SELECT * FROM siteinfo"},
			{"topk", "SELECT host, metric, value FROM siteinfo ORDER BY value DESC LIMIT 3"},
		} {
			sql := shape.sql
			b.Run(fmt.Sprintf("servlets=%d/%s", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := cs.Query(oracleNow, sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
