// Package liveops wires the three monitoring services to the live
// transport's operation namespace. cmd/gridmon-live uses it to serve real
// TCP clients; tests exercise the same wiring in-process.
//
// Each of the six documented ops is registered once, as a typed handler
// (OpRequest to OpResponse, JSON bodies) that returns structured error
// codes and honors propagated context deadlines.
package liveops

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/classad"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/mds"
	"repro/internal/rgma"
	"repro/internal/transport"
)

// Deployment is the set of live services the operations dispatch to.
// Components may be nil when the corresponding system is not deployed;
// their ops then fail with transport.CodeUnavailable.
type Deployment struct {
	GIIS     *mds.GIIS
	Registry *rgma.Registry
	Consumer *rgma.ConsumerServlet
	Manager  *hawkeye.Manager
	// Now supplies the services' notion of time (wall seconds since
	// start in the live server, simulation time in tests).
	Now func() float64
	// Serialize, when non-nil, wraps every op's execution. The Grid
	// facade passes its own mutex here, so legacy param-based ops cannot
	// race the facade's Advance pump on the shared components (the GIIS
	// cache, producer rows) the way unserialized direct calls would. A
	// non-nil return refuses the op without running it — the facade's
	// admission gate sheds with transport.CodeOverloaded this way — and
	// ctx (the caller's, deadline included) bounds any wait inside.
	Serialize func(ctx context.Context, run func()) error
}

// OpRequest is the request body of the param-based ops: key/value
// parameters.
type OpRequest struct {
	Params map[string]string `json:"params,omitempty"`
}

// OpResponse is the response body of the param-based ops.
type OpResponse struct {
	Payload string `json:"payload"`
}

// opFunc is one op's implementation. The ctx is the caller's, carrying
// the propagated wire deadline. Returned errors should be
// *transport.Error to carry a structured code; plain errors are
// classified as exec failures.
type opFunc func(ctx context.Context, params map[string]string) (string, error)

// Register installs every operation on the server:
//
//	mds.query      params: filter (RFC 1960), attrs (comma-separated)
//	mds.hosts      list registered hosts
//	rgma.query     params: sql (SELECT)
//	rgma.tables    list advertised tables
//	hawkeye.query  params: constraint (ClassAd expression)
//	hawkeye.pool   list pool members
func Register(srv *transport.Server, dep Deployment) {
	now := dep.Now
	if now == nil {
		now = func() float64 { return 0 }
	}
	serialize := dep.Serialize
	if serialize == nil {
		serialize = func(_ context.Context, run func()) error { run(); return nil }
	}
	// Every op runs inside the deployment's serializer before touching
	// the shared components; a serializer refusal (admission shed) is the
	// op's failure.
	serialized := func(op string, fn opFunc) {
		transport.Handle(srv, op, func(ctx context.Context, req OpRequest) (resp OpResponse, err error) {
			if serr := serialize(ctx, func() { resp.Payload, err = fn(ctx, req.Params) }); serr != nil {
				return OpResponse{}, serr
			}
			return resp, err
		})
	}
	serialized("mds.query", func(ctx context.Context, params map[string]string) (string, error) {
		if dep.GIIS == nil {
			return "", transport.Errf(transport.CodeUnavailable, "MDS is not deployed on this server")
		}
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
		entries, _, err := dep.GIIS.QueryCtx(ctx, now(), filter, attrs)
		if err != nil {
			return "", err
		}
		return ldap.FormatResults(entries), nil
	})
	serialized("mds.hosts", func(context.Context, map[string]string) (string, error) {
		if dep.GIIS == nil {
			return "", transport.Errf(transport.CodeUnavailable, "MDS is not deployed on this server")
		}
		return strings.Join(dep.GIIS.Hosts(now()), "\n"), nil
	})
	serialized("rgma.query", func(ctx context.Context, params map[string]string) (string, error) {
		if dep.Consumer == nil {
			return "", transport.Errf(transport.CodeUnavailable, "R-GMA is not deployed on this server")
		}
		sql := params["sql"]
		if sql == "" {
			return "", transport.Errf(transport.CodeBadRequest, "missing sql parameter")
		}
		res, _, err := dep.Consumer.QueryCtx(ctx, now(), sql)
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
	serialized("rgma.tables", func(context.Context, map[string]string) (string, error) {
		if dep.Registry == nil {
			return "", transport.Errf(transport.CodeUnavailable, "R-GMA is not deployed on this server")
		}
		return strings.Join(dep.Registry.Tables(now()), "\n"), nil
	})
	serialized("hawkeye.query", func(ctx context.Context, params map[string]string) (string, error) {
		if dep.Manager == nil {
			return "", transport.Errf(transport.CodeUnavailable, "Hawkeye is not deployed on this server")
		}
		var constraint classad.Expr
		if c := params["constraint"]; c != "" {
			var err error
			constraint, err = classad.ParseExpr(c)
			if err != nil {
				return "", transport.Errf(transport.CodeParse, "%v", err)
			}
		}
		ads, _ := dep.Manager.Query(now(), constraint)
		var sb strings.Builder
		for _, ad := range ads {
			sb.WriteString(ad.Unparse())
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	})
	serialized("hawkeye.pool", func(context.Context, map[string]string) (string, error) {
		if dep.Manager == nil {
			return "", transport.Errf(transport.CodeUnavailable, "Hawkeye is not deployed on this server")
		}
		return strings.Join(dep.Manager.Machines(now()), "\n"), nil
	})
}

// BuildDefault assembles a complete live deployment over the given hosts:
// an MDS hierarchy, an R-GMA mesh (nProducers per host), and a Hawkeye
// pool — everything cmd/gridmon-live serves.
func BuildDefault(hosts []string, nProducers int, now func() float64) (Deployment, map[string]*hawkeye.Agent, error) {
	dep := Deployment{Now: now}
	dep.GIIS = mds.NewGIIS("giis", 1e12, 1e12)
	for i, h := range hosts {
		g := mds.NewGRIS(h, 1e12, mds.DefaultProviders())
		g.Warm(0)
		if _, err := dep.GIIS.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
			return dep, nil, err
		}
	}
	dep.Registry = rgma.NewRegistry("registry")
	servlets := map[string]*rgma.ProducerServlet{}
	for _, h := range hosts {
		addr := h + ":8080"
		ps := rgma.NewProducerServlet(addr)
		for i := 0; i < nProducers; i++ {
			ps.Host(rgma.NewMonitoringProducer(fmt.Sprintf("%s-p%d", h, i), "siteinfo",
				fmt.Sprintf("%s-sensor%02d", h, i), 5))
		}
		servlets[addr] = ps
		for _, ad := range ps.Advertisements() {
			if err := dep.Registry.RegisterProducer(ad, 0, 1e12); err != nil {
				return dep, nil, err
			}
		}
	}
	dep.Consumer = rgma.NewConsumerServlet("consumer:8080", dep.Registry,
		func(addr string) (*rgma.ProducerServlet, error) {
			ps, ok := servlets[addr]
			if !ok {
				return nil, fmt.Errorf("liveops: unknown producer servlet %q", addr)
			}
			return ps, nil
		})
	dep.Manager = hawkeye.NewManager("manager", 0)
	agents := map[string]*hawkeye.Agent{}
	for _, h := range hosts {
		a := hawkeye.NewAgent(h, 30)
		if err := a.AddModules(hawkeye.DefaultModules()); err != nil {
			return dep, nil, err
		}
		ad, _ := a.StartdAd(0)
		if _, err := dep.Manager.Update(0, ad); err != nil {
			return dep, nil, err
		}
		agents[h] = a
	}
	return dep, agents, nil
}
