package rgma

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gma"
	"repro/internal/relational"
)

// ProducerServlet hosts a set of local Producers and answers SQL queries
// over their tables on their behalf — the R-GMA information server. The
// paper runs one on lucky3 with ten local Producers.
type ProducerServlet struct {
	Address string

	producers []*Producer
}

// NewProducerServlet creates an empty servlet at the given address.
func NewProducerServlet(address string) *ProducerServlet {
	return &ProducerServlet{Address: address}
}

// Host attaches a producer to this servlet, stamping the producer's
// advertisement address.
func (ps *ProducerServlet) Host(p *Producer) {
	ps.producers = append(ps.producers, p)
}

// NumProducers reports the number of hosted producers.
func (ps *ProducerServlet) NumProducers() int { return len(ps.producers) }

// Producers lists hosted producers.
func (ps *ProducerServlet) Producers() []*Producer { return ps.producers }

// Advertisements returns the hosted producers' advertisements with this
// servlet's address filled in.
func (ps *ProducerServlet) Advertisements() []gma.Advertisement {
	out := make([]gma.Advertisement, 0, len(ps.producers))
	for _, p := range ps.producers {
		ad := p.Advertisement()
		ad.Address = ps.Address
		out = append(out, ad)
	}
	return out
}

// Query executes a SQL SELECT over the union of hosted producers' rows for
// the statement's table — the way a ProducerServlet answers on behalf of
// its producers. Every producer of the table contributes rows (refreshed
// at time now).
func (ps *ProducerServlet) Query(now float64, sql string) (*relational.Result, QueryStats, error) {
	st := QueryStats{ThreadSpawns: 1}
	stmt, err := relational.Parse(sql)
	if err != nil {
		return nil, st, err
	}
	sel, ok := stmt.(relational.SelectStmt)
	if !ok {
		return nil, st, fmt.Errorf("rgma: producer servlet accepts only SELECT, got %T", stmt)
	}
	return ps.query(now, sel, st)
}

// query is Query's body for a parsed statement, accounting into st. The
// union of the producers' rows is handed to the SELECT as it is, not
// inserted into a table; Work still charges the paper's servlet for
// materializing each row before it scans them.
func (ps *ProducerServlet) query(now float64, sel relational.SelectStmt, st QueryStats) (*relational.Result, QueryStats, error) {
	var first *Producer
	var buf [8][][]relational.Value
	batches, n := buf[:0], 0
	for _, p := range ps.producers {
		if !strings.EqualFold(p.Table, sel.Table) {
			continue
		}
		if first == nil {
			first = p
		}
		rows := p.Rows(now)
		batches = append(batches, rows)
		n += len(rows)
	}
	if first == nil {
		return nil, st, fmt.Errorf("rgma: no producer of table %q at %s", sel.Table, ps.Address)
	}
	rows := batches[0]
	if len(batches) > 1 {
		rows = make([][]relational.Value, 0, n)
		for _, b := range batches {
			rows = append(rows, b...)
		}
	}
	// The first producer of the table names it and sets its columns.
	res, stored, err := relational.SelectRows(sel, first.Table, first.Schema(), rows)
	st.RowsScanned += stored // materialization work
	if err != nil {
		return nil, st, err
	}
	st.RowsScanned += res.Scanned
	st.RowsReturned += len(res.Rows)
	st.ResponseBytes += res.SizeBytes()
	st.IndexHits += res.IndexHits
	if !res.Indexed {
		st.ScanFallbacks++
	}
	return res, st, nil
}

// ConsumerServlet mediates Consumer queries: it consults the Registry to
// locate producers of the queried table, forwards the query to each
// producer's servlet, and merges the answers. The paper's UC setup hits a
// 128-row environment limit, surfaced here as MaxConsumers.
type ConsumerServlet struct {
	Address string
	// MaxConsumers caps concurrently attached consumers (the paper could
	// drive only 120 consumers through one ConsumerServlet). Zero means
	// no cap.
	MaxConsumers int

	registry *Registry
	// resolve maps a producer advertisement address to its servlet.
	resolve  func(address string) (*ProducerServlet, error)
	attached int
}

// NewConsumerServlet creates a consumer servlet bound to a registry and a
// resolver from advertisement addresses to producer servlets.
func NewConsumerServlet(address string, reg *Registry, resolve func(string) (*ProducerServlet, error)) *ConsumerServlet {
	return &ConsumerServlet{Address: address, registry: reg, resolve: resolve}
}

// Attach admits a consumer, enforcing MaxConsumers.
func (cs *ConsumerServlet) Attach() error {
	if cs.MaxConsumers > 0 && cs.attached >= cs.MaxConsumers {
		return fmt.Errorf("rgma: consumer servlet %s full (%d consumers)", cs.Address, cs.MaxConsumers)
	}
	cs.attached++
	return nil
}

// Detach releases a consumer slot.
func (cs *ConsumerServlet) Detach() {
	if cs.attached > 0 {
		cs.attached--
	}
}

// Attached reports the number of attached consumers.
func (cs *ConsumerServlet) Attached() int { return cs.attached }

// Query mediates one SQL SELECT: registry lookup, per-producer-servlet
// fan-out, merge. Distinct producer servlets are contacted once each.
func (cs *ConsumerServlet) Query(now float64, sql string) (*relational.Result, QueryStats, error) {
	//gridmon:nolint ctxflow compat entry point: pre-context callers have no deadline to propagate
	return cs.QueryCtx(context.Background(), now, sql)
}

// QueryCtx is Query with a cancellation point before each producer
// servlet is contacted, so a caller abandoning a mediated query stops
// the fan-out mid-flight rather than only at the edges.
func (cs *ConsumerServlet) QueryCtx(ctx context.Context, now float64, sql string) (*relational.Result, QueryStats, error) {
	st := QueryStats{ThreadSpawns: 1}
	stmt, err := relational.Parse(sql)
	if err != nil {
		return nil, st, err
	}
	sel, ok := stmt.(relational.SelectStmt)
	if !ok {
		return nil, st, fmt.Errorf("rgma: consumers may only SELECT, got %T", stmt)
	}
	ads, lookupStats, err := cs.registry.LookupProducersStats(sel.Table, now)
	st.RegistryLookups++
	st.Add(lookupStats)
	if err != nil {
		return nil, st, err
	}
	if len(ads) == 0 {
		return nil, st, fmt.Errorf("rgma: no producers of table %q registered", sel.Table)
	}
	seen := make(map[string]bool)
	var merged *relational.Result
	for _, ad := range ads {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		if seen[ad.Address] {
			continue
		}
		seen[ad.Address] = true
		pserv, err := cs.resolve(ad.Address)
		if err != nil {
			return nil, st, err
		}
		res, pStats, err := pserv.query(now, sel, QueryStats{ThreadSpawns: 1})
		st.ProducersContacted++
		st.Add(pStats)
		if err != nil {
			return nil, st, err
		}
		if merged == nil {
			merged = &relational.Result{Columns: res.Columns}
		}
		merged.Rows = append(merged.Rows, res.Rows...)
	}
	// Re-apply ORDER BY and LIMIT across the merged rows: each producer
	// servlet ordered and limited only its own slice.
	if sel.OrderBy != "" && merged != nil {
		oi := -1
		for i, c := range merged.Columns {
			if strings.EqualFold(c, sel.OrderBy) {
				oi = i
				break
			}
		}
		if oi >= 0 {
			sort.SliceStable(merged.Rows, func(i, j int) bool {
				cmp, err := merged.Rows[i][oi].Compare(merged.Rows[j][oi])
				if err != nil {
					return false
				}
				if sel.Desc {
					return cmp > 0
				}
				return cmp < 0
			})
		}
	}
	if sel.Limit > 0 && merged != nil && len(merged.Rows) > sel.Limit {
		merged.Rows = merged.Rows[:sel.Limit]
	}
	return merged, st, nil
}
