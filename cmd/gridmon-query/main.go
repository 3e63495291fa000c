// Command gridmon-query is the client for gridmon-live: it issues one
// operation against a running server and prints the payload. grid.query
// rides the binary codec (RemoteGrid.Query); every other op is called
// with a JSON body, so any control op a server lists is reachable from
// here. Server failures come back with structured error codes, which map
// to the exit status (see below). A server refuses a JSON-bodied
// grid.query, as an older gridmon-query sends it, with bad_request.
//
// Usage:
//
//	gridmon-query [-addr 127.0.0.1:7946] [-timeout 10s] [-o table|json]
//	              [-retries N] [-attempt-timeout D] [-breaker N,COOLDOWN]
//	              [-watch] [-interval 5s] <op> [key=value ...]
//
// Examples:
//
//	gridmon-query ops.list
//	gridmon-query -o json ops.stats
//	gridmon-query -o json fed.stats
//	gridmon-query grid.hosts
//	gridmon-query -o json grid.query system=Hawkeye role='Aggregate Information Server' 'expr=TARGET.CpuLoad > 50'
//	gridmon-query -watch grid.query system=R-GMA 'expr=SELECT * FROM siteinfo WHERE value >= 50'
//	gridmon-query -watch -interval 10s -o json grid.query system=MDS 'expr=(objectclass=MdsCpu)'
//	gridmon-query grid.query system=MDS role='Directory Server'
//	gridmon-query grid.query system=MDS role='Aggregate Information Server' 'expr=(objectclass=MdsCpu)' attrs=Mds-Cpu-Free-1minX100
//	gridmon-query grid.query system=R-GMA 'expr=SELECT host, value FROM siteinfo WHERE value >= 50'
//	gridmon-query grid.query system=R-GMA role='Directory Server' expr=siteinfo
//	gridmon-query grid.query system=Hawkeye role='Directory Server'
//
// The grid.query op takes params system, role, host, expr and attrs
// (comma-separated) and renders the typed ResultSet; role defaults to
// the information server. It is the one read op: every engine of every
// system is reached through it. -o json renders the typed ops' responses
// as JSON instead of text tables; any other op is called with no body
// and prints its JSON answer.
//
// -watch turns a grid.query into a grid.subscribe: the same params
// become a gridmon.Subscription (with -interval as the MDS watcher's
// poll cadence) and events print as they stream, one block (or one JSON
// line) per event, until interrupted. The server's -advance loop paces
// delivery. An R-GMA watch runs its whole SELECT over each published
// batch as grid.query would; ORDER BY, LIMIT and unknown columns are
// refused at the start, and an evaluation error ends the watch.
//
// The connection is the resilient client gridmon.DialWith builds:
// -retries re-issues a failed idempotent call that many extra times
// (reconnecting first when the connection died), -attempt-timeout
// bounds each individual attempt, and -breaker N,COOLDOWN arms a
// circuit breaker that fails fast after N consecutive failures until
// COOLDOWN passes. All three default off, preserving the old
// single-attempt behavior.
//
// Exit status: 0 on success; on a server error, a status derived from
// the structured code — 2 for bad_request/parse_error/unknown_op (an
// unknown op also prints the server's registered ops), 3 for
// unavailable, 4 for deadline_exceeded, 5 for degraded (a federation
// aggregator that could not assemble any answer), 1 otherwise.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	gridmon "repro"
	"repro/internal/federation"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7946", "gridmon-live address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call deadline (0 = none)")
	output := flag.String("o", "table", "output format for typed ops: table or json")
	watch := flag.Bool("watch", false, "subscribe to grid.query params and stream events")
	interval := flag.Duration("interval", 5*time.Second, "watch: MDS poll cadence in grid-clock seconds")
	retries := flag.Int("retries", 0, "retries per failed idempotent call (0 = single attempt)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt timeout within -timeout (0 = none)")
	breaker := flag.String("breaker", "", "circuit breaker as THRESHOLD[,COOLDOWN], e.g. 3,1s (empty = off)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr,
			"usage: gridmon-query [-addr host:port] [-timeout 10s] [-o table|json] [-watch] [-interval 5s] <op> [key=value ...]")
		os.Exit(2)
	}
	if *output != "table" && *output != "json" {
		fmt.Fprintf(os.Stderr, "bad -o %q (want table or json)\n", *output)
		os.Exit(2)
	}
	op := args[0]
	params := make(map[string]string)
	for _, kv := range args[1:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			fmt.Fprintf(os.Stderr, "bad parameter %q (want key=value)\n", kv)
			os.Exit(2)
		}
		params[kv[:eq]] = kv[eq+1:]
	}

	br, err := gridmon.ParseBreaker(*breaker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -breaker %q: %v\n", *breaker, err)
		os.Exit(2)
	}
	dialOpts := gridmon.DialOptions{
		MaxRetries:     *retries,
		AttemptTimeout: *attemptTimeout,
		Breaker:        br,
	}

	if *watch {
		if op != "grid.query" {
			fmt.Fprintf(os.Stderr, "-watch applies to grid.query, not %q\n", op)
			os.Exit(2)
		}
		os.Exit(watchLoop(*addr, dialOpts, query(params), *interval, *timeout, *output))
	}

	remote, err := gridmon.DialWith(*addr, dialOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer remote.Close()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	payload, err := call(ctx, remote, op, params, *output)
	if err != nil {
		e := transport.AsError(err)
		fmt.Fprintf(os.Stderr, "error [%s]: %s\n", e.Code, e.Message)
		if e.Code == transport.CodeUnknownOp {
			printOps(ctx, remote)
		}
		os.Exit(exitStatus(e.Code))
	}
	fmt.Print(payload)
	if !strings.HasSuffix(payload, "\n") {
		fmt.Println()
	}
}

// query builds the Query the grid.query params describe.
func query(params map[string]string) gridmon.Query {
	q := gridmon.Query{
		System: gridmon.System(params["system"]),
		Role:   gridmon.Role(params["role"]),
		Host:   params["host"],
		Expr:   params["expr"],
	}
	if a := params["attrs"]; a != "" {
		q.Attrs = strings.Split(a, ",")
	}
	return q
}

// watchLoop subscribes to q, polling MDS every interval, and prints
// events until interrupted, returning the process exit status. The
// client bounds the subscribe handshake (dial, ack and preamble) by its
// AttemptTimeout, which -timeout caps; the stream itself is unbounded:
// it runs until interrupted.
func watchLoop(addr string, dialOpts gridmon.DialOptions, q gridmon.Query, interval, timeout time.Duration, output string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 && (dialOpts.AttemptTimeout <= 0 || timeout < dialOpts.AttemptTimeout) {
		dialOpts.AttemptTimeout = timeout
	}
	remote := gridmon.DialLazy(addr, dialOpts)
	defer remote.Close()
	st, err := remote.Subscribe(ctx, gridmon.Subscription{System: q.System, Role: q.Role,
		Host: q.Host, Expr: q.Expr, Attrs: q.Attrs, PollEvery: interval.Seconds()})
	if err != nil {
		e := transport.AsError(err)
		fmt.Fprintf(os.Stderr, "error [%s]: %s\n", e.Code, e.Message)
		return exitStatus(e.Code)
	}
	for {
		ev, err := st.Next(ctx)
		if err != nil {
			// A lag report is not the end of the stream: note the loss
			// (visible as a gap in seq) and resume delivery.
			var lag *gridmon.LagError
			if errors.As(err, &lag) {
				fmt.Fprintf(os.Stderr, "lagged: %d event(s) dropped\n", lag.Dropped)
				continue
			}
			if ctx.Err() != nil {
				return 0 // interrupted: a clean watch shutdown
			}
			e := transport.AsError(err)
			fmt.Fprintf(os.Stderr, "error [%s]: %s\n", e.Code, e.Message)
			return exitStatus(e.Code)
		}
		printEvent(ev, output)
	}
}

// printEvent renders one event: a JSON line, or a header plus one line
// per record.
func printEvent(ev gridmon.Event, output string) {
	if output == "json" {
		b, err := json.Marshal(ev)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("seq=%d t=%.0fs %s: %d record(s)\n", ev.Seq, ev.Time, ev.Kind, len(ev.Records))
	for _, r := range ev.Records {
		fmt.Printf("  %s", r.Key)
		for _, name := range r.SortedFieldNames() {
			fmt.Printf(" %s=%s", name, r.Fields[name])
		}
		fmt.Println()
	}
}

// call invokes one op. The typed ops (ops.list, ops.stats, fed.stats,
// grid.*) get their own request/response shapes — rendered as text or,
// with -o json, as JSON.
func call(ctx context.Context, remote *gridmon.RemoteGrid, op string, params map[string]string, output string) (string, error) {
	asJSON := func(v interface{}) (string, error) {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	switch op {
	case "ops.list":
		var ol transport.OpsList
		if err := remote.Call(ctx, op, nil, &ol); err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(ol)
		}
		return strings.Join(ol.Ops, "\n"), nil
	case "grid.hosts":
		var hl gridmon.HostList
		if err := remote.Call(ctx, op, nil, &hl); err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(hl)
		}
		return strings.Join(hl.Hosts, "\n"), nil
	case "grid.systems":
		var sl gridmon.SystemList
		if err := remote.Call(ctx, op, nil, &sl); err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(sl)
		}
		parts := make([]string, len(sl.Systems))
		for i, s := range sl.Systems {
			parts[i] = string(s)
		}
		return strings.Join(parts, "\n"), nil
	case "ops.stats":
		var st gridmon.Stats
		if err := remote.Call(ctx, op, nil, &st); err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(st)
		}
		return fmt.Sprintf(
			"queries      %d\nerrors       %d\nshed         %d\nqueued       %d\nqueue_depth  %d\nin_flight    %d\ncache_hits   %d\ncache_misses %d",
			st.Queries, st.Errors, st.Shed, st.Queued, st.QueueDepth, st.InFlight, st.CacheHits, st.CacheMisses), nil
	case "fed.stats":
		var fs federation.Stats
		if err := remote.Call(ctx, op, nil, &fs); err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(fs)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "epoch           %d\nshards          %d\npolicy          %s\nqueries         %d\npartials        %d\ndegraded        %d\nbranch_failures %d",
			fs.Epoch, fs.Shards, fs.Policy, fs.Queries, fs.Partials, fs.Degraded, fs.BranchFailures)
		for _, be := range fs.Backends {
			fmt.Fprintf(&b, "\nshard %d %s: breaker=%s calls=%d retries=%d reconnects=%d breaker_opens=%d",
				be.Shard, be.Addr, be.Client.BreakerState, be.Client.Calls, be.Client.Retries, be.Client.Reconnects, be.Client.BreakerOpens)
		}
		return b.String(), nil
	case "grid.query":
		rs, err := remote.Query(ctx, query(params))
		if err != nil {
			return "", err
		}
		if output == "json" {
			return asJSON(rs)
		}
		return rs.String(), nil
	}
	// Any other op is called with no body and its JSON answer printed as
	// it came; an op the server does not serve fails with unknown_op.
	var resp json.RawMessage
	if err := remote.Call(ctx, op, nil, &resp); err != nil {
		return "", err
	}
	return string(resp), nil
}

// printOps asks the server for its registered op names, so an unknown-op
// failure doubles as usage help.
func printOps(ctx context.Context, remote *gridmon.RemoteGrid) {
	var ol transport.OpsList
	if err := remote.Call(ctx, "ops.list", nil, &ol); err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "ops served by this server:\n")
	for _, op := range ol.Ops {
		fmt.Fprintf(os.Stderr, "  %s\n", op)
	}
}

// exitStatus maps a structured error code to the process exit status.
func exitStatus(code transport.Code) int {
	switch code {
	case transport.CodeBadRequest, transport.CodeParse, transport.CodeUnknownOp:
		return 2
	case transport.CodeUnavailable:
		return 3
	case transport.CodeDeadline:
		return 4
	case transport.CodeDegraded:
		return 5
	default:
		return 1
	}
}
