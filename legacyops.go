package gridmon

import (
	"context"
	"strings"

	"repro/internal/classad"
	"repro/internal/ldap"
	"repro/internal/transport"
)

// OpRequest is the request body of the six param-based ops (see
// Grid.Serve): key/value parameters.
type OpRequest struct {
	Params map[string]string `json:"params,omitempty"`
}

// OpResponse is the response body of the param-based ops: the answer in
// the system's own text rendering (LDIF, CSV, ClassAds, name lists).
type OpResponse struct {
	Payload string `json:"payload"`
}

// serveLegacyOps registers the six param-based ops, each once, as typed
// handlers over JSON bodies:
//
//	mds.query      params: filter (RFC 1960), attrs (comma-separated)
//	mds.hosts      list registered hosts
//	rgma.query     params: sql (SELECT)
//	rgma.tables    list advertised tables
//	hawkeye.query  params: constraint (ClassAd expression)
//	hawkeye.pool   list pool members
//
// They predate grid.query and answer in each system's text rendering
// rather than as records, but they are readers of the same engines and
// are served like one: same admission gate, same read lock (beginRead),
// the caller's propagated deadline in ctx.
func (g *Grid) serveLegacyOps(srv *transport.Server) {
	handle := func(op string, sys System, fn func(ctx context.Context, params map[string]string) (string, error)) {
		transport.Handle(srv, op, func(ctx context.Context, req OpRequest) (OpResponse, error) {
			if !g.Enabled(sys) {
				return OpResponse{}, transport.Errf(transport.CodeUnavailable, "%s is not deployed on this server", sys)
			}
			if err := g.beginRead(ctx); err != nil {
				return OpResponse{}, err
			}
			defer g.endRead()
			payload, err := fn(ctx, req.Params)
			return OpResponse{Payload: payload}, err
		})
	}
	handle("mds.query", MDS, func(ctx context.Context, params map[string]string) (string, error) {
		var filter ldap.Filter
		if f := params["filter"]; f != "" {
			var err error
			filter, err = ldap.ParseFilter(f)
			if err != nil {
				return "", transport.Errf(transport.CodeParse, "%v", err)
			}
		}
		var attrs []string
		if a := params["attrs"]; a != "" {
			attrs = strings.Split(a, ",")
		}
		entries, _, err := g.giis.QueryCtx(ctx, g.clock(), filter, attrs)
		if err != nil {
			return "", err
		}
		return ldap.FormatResults(entries), nil
	})
	handle("mds.hosts", MDS, func(context.Context, map[string]string) (string, error) {
		return strings.Join(g.giis.Hosts(g.clock()), "\n"), nil
	})
	handle("rgma.query", RGMA, func(ctx context.Context, params map[string]string) (string, error) {
		sql := params["sql"]
		if sql == "" {
			return "", transport.Errf(transport.CodeBadRequest, "missing sql parameter")
		}
		res, _, err := g.consumer.QueryCtx(ctx, g.clock(), sql)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(res.Columns, ","))
		sb.WriteByte('\n')
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			sb.WriteString(strings.Join(parts, ","))
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	})
	handle("rgma.tables", RGMA, func(context.Context, map[string]string) (string, error) {
		return strings.Join(g.registry.Tables(g.clock()), "\n"), nil
	})
	handle("hawkeye.query", Hawkeye, func(_ context.Context, params map[string]string) (string, error) {
		var constraint classad.Expr
		if c := params["constraint"]; c != "" {
			var err error
			constraint, err = classad.ParseExpr(c)
			if err != nil {
				return "", transport.Errf(transport.CodeParse, "%v", err)
			}
		}
		ads, _ := g.manager.Query(g.clock(), constraint)
		var sb strings.Builder
		for _, ad := range ads {
			sb.WriteString(ad.Unparse())
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	})
	handle("hawkeye.pool", Hawkeye, func(context.Context, map[string]string) (string, error) {
		return strings.Join(g.manager.Machines(g.clock()), "\n"), nil
	})
}
