package rgma

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

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
	sel, err := relational.Parse(sql)
	if err != nil {
		return nil, QueryStats{ThreadSpawns: 1}, err
	}
	return ps.QueryInto(now, &relational.RowsQuery{Select: sel})
}

// QueryInto is Query answering q's already-parsed Select on q, whose
// scratch the caller may reuse: the Result is q's (see
// RowsQuery.Result).
func (ps *ProducerServlet) QueryInto(now float64, q *relational.RowsQuery) (*relational.Result, QueryStats, error) {
	st, err := ps.query(now, q, QueryStats{ThreadSpawns: 1})
	if err != nil {
		return nil, st, err
	}
	return q.Result(), st, nil
}

// query runs q over the union of the hosted producers' rows for its
// table — one set of q — accounting into st. The rows are handed to the
// SELECT as they are, not inserted into a table; Work still charges the
// paper's servlet for materializing each row before it scans them.
func (ps *ProducerServlet) query(now float64, q *relational.RowsQuery, st QueryStats) (QueryStats, error) {
	var first *Producer
	var buf [8][][]relational.Value
	batches := buf[:0]
	for _, p := range ps.producers {
		if !strings.EqualFold(p.Table, q.Select.Table) {
			continue
		}
		if first == nil {
			first = p
		}
		batches = append(batches, p.Rows(now))
	}
	if first == nil {
		return st, fmt.Errorf("rgma: no producer of table %q at %s", q.Select.Table, ps.Address)
	}
	// The first producer of the table names it and sets its columns.
	set, err := q.Run(first.Table, first.Schema(), batches)
	st.RowsScanned += set.Stored // materialization work
	if err != nil {
		return st, err
	}
	st.RowsScanned += set.Scanned
	st.RowsReturned += set.Rows
	st.ResponseBytes += set.Bytes
	if !set.Indexed {
		st.ScanFallbacks++
	}
	return st, nil
}

// ConsumerServlet mediates Consumer queries: it consults the Registry to
// locate producers of the queried table, forwards the query to each
// producer's servlet, and merges the answers. (The paper's UC setup hit
// a 128-row environment limit at 120 consumers per ConsumerServlet; the
// experiments that model it enforce that cap themselves.)
type ConsumerServlet struct {
	Address string

	registry *Registry
	// resolve maps a producer advertisement address to its servlet.
	resolve func(address string) (*ProducerServlet, error)
}

// NewConsumerServlet creates a consumer servlet bound to a registry and a
// resolver from advertisement addresses to producer servlets.
func NewConsumerServlet(address string, reg *Registry, resolve func(string) (*ProducerServlet, error)) *ConsumerServlet {
	return &ConsumerServlet{Address: address, registry: reg, resolve: resolve}
}

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
	sel, err := relational.Parse(sql)
	if err != nil {
		return nil, QueryStats{ThreadSpawns: 1}, err
	}
	return cs.QueryIntoCtx(ctx, now, &relational.RowsQuery{Select: sel})
}

// QueryIntoCtx is QueryCtx answering q's already-parsed Select on q,
// whose scratch the caller may reuse: the Result is q's (see
// RowsQuery.Result).
func (cs *ConsumerServlet) QueryIntoCtx(ctx context.Context, now float64, q *relational.RowsQuery) (*relational.Result, QueryStats, error) {
	lent := LendAdverts()
	ads, lookupStats := cs.registry.LookupInto(q.Select.Table, now, *lent)
	defer ReturnAdverts(lent, ads)
	st := QueryStats{ThreadSpawns: 1, RegistryLookups: 1}
	st.Add(lookupStats)
	if len(ads) == 0 {
		return nil, st, fmt.Errorf("rgma: no producers of table %q registered", q.Select.Table)
	}
	// One plan and one result serve every producer servlet; each still
	// orders and limits its own rows, and Result orders and limits the
	// union.
	var buf [16]string
	seen := buf[:0] // a handful of servlets: a scan beats a map's growth
	for _, ad := range ads {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		if slices.Contains(seen, ad.Address) {
			continue
		}
		seen = append(seen, ad.Address)
		pserv, err := cs.resolve(ad.Address)
		if err != nil {
			return nil, st, err
		}
		pStats, err := pserv.query(now, q, QueryStats{ThreadSpawns: 1})
		st.ProducersContacted++
		st.Add(pStats)
		if err != nil {
			return nil, st, err
		}
	}
	return q.Result(), st, nil
}

// adverts pools the lists a Registry lookup appends to (LookupInto),
// for a mediated query and a directory query alike.
var adverts = sync.Pool{New: func() any { return new([]gma.Advertisement) }}

// LendAdverts lends an empty list to look advertisements up in; give it
// back with ReturnAdverts.
func LendAdverts() *[]gma.Advertisement { return adverts.Get().(*[]gma.Advertisement) }

// ReturnAdverts returns lent to the pool as used, emptied and cleared.
func ReturnAdverts(lent *[]gma.Advertisement, used []gma.Advertisement) {
	clear(used)
	*lent = used[:0]
	adverts.Put(lent)
}
