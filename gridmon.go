// Package gridmon is a Go reproduction of "A Performance Study of
// Monitoring and Information Services for Distributed Systems" (Zhang,
// Freschl, Schopf — HPDC 2003). It implements the three systems the paper
// measures — the Globus MDS, the European DataGrid's R-GMA, and Condor's
// Hawkeye — on from-scratch substrates (an LDAP directory engine, a
// relational/SQL engine, and the ClassAd language), plus a deterministic
// discrete-event testbed that regenerates every figure of the paper's
// evaluation.
//
// # The v2 API
//
// The public surface mirrors the paper's central idea: one functional
// mapping (Table 1) over three very different systems. A Grid facade
// owns a complete deployment of all three:
//
//	g, err := gridmon.New(
//		gridmon.WithHosts("lucky3", "lucky4", "lucky7"),
//		gridmon.WithSystems(gridmon.MDS, gridmon.RGMA, gridmon.Hawkeye),
//		gridmon.WithRGMAProducers(3),
//	)
//
// and answers one typed request shape whose Expr field is interpreted in
// each system's native dialect — an RFC 1960 LDAP filter for MDS, SQL
// for R-GMA, a ClassAd constraint for Hawkeye:
//
//	rs, err := g.Query(ctx, gridmon.Query{
//		System: gridmon.MDS,
//		Role:   gridmon.RoleAggregateServer,
//		Expr:   "(objectclass=MdsCpu)",
//	})
//
// The ResultSet carries uniformly decoded records, the component's Work
// accounting, and elapsed time. Query is the one read path: every Table 1
// component answers through it, and each system's concrete components
// are reachable directly through g.MDS, g.RGMA and g.HawkeyePool.
//
// The push half mirrors the pull half: one Subscription shape opens a
// typed event stream against any system — R-GMA continuous queries,
// Hawkeye trigger matchmaking, an MDS poll-and-diff watcher — with
// bounded-buffer slow-consumer semantics (see ErrLagged):
//
//	st, err := g.Subscribe(ctx, gridmon.Subscription{
//		System: gridmon.Hawkeye,
//		Expr:   "TARGET.CpuLoad > 50",
//	})
//	ev, err := st.Next(ctx) // Event{Seq, Time, Kind, Records, Work}
//
// Grid.Advance runs the monitoring rounds that feed the streams.
//
// The same interfaces work over the network: Grid.Serve registers the
// typed grid.query and grid.subscribe ops on a transport server, and
// Dial returns a remote client implementing the same Querier and
// Subscriber interfaces, so in-process and live-TCP modes are
// interchangeable — down to identical event sequences.
//
// The package has two modes:
//
//   - Live mode: construct a Grid and query it in-process (or over TCP
//     via cmd/gridmon-live and Dial); see the examples/ directory.
//   - Simulated mode: run the paper's experiment sets on the modeled
//     Lucky/UC testbed; see RunExperimentWorkers and cmd/gridmon-bench.
package gridmon

import (
	"fmt"
	"io"

	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hawkeye"
	"repro/internal/mds"
	"repro/internal/rgma"
)

// Re-exported core types: the paper's component mapping (Table 1) and the
// concrete components of the three systems.
type (
	// System and Role identify the services and Table 1 roles.
	System = core.System
	Role   = core.Role

	// MDS components.
	GRIS = mds.GRIS
	GIIS = mds.GIIS

	// R-GMA components.
	Registry        = rgma.Registry
	Producer        = rgma.Producer
	ProducerServlet = rgma.ProducerServlet
	ConsumerServlet = rgma.ConsumerServlet

	// Hawkeye components.
	Agent   = hawkeye.Agent
	Manager = hawkeye.Manager
	Trigger = hawkeye.Trigger

	// ClassAd is the record Hawkeye advertises and matches.
	ClassAd = classad.Ad
)

// The systems and roles of the paper's Table 1.
const (
	MDS     = core.SystemMDS
	RGMA    = core.SystemRGMA
	Hawkeye = core.SystemHawkeye

	RoleInformationCollector = core.RoleInformationCollector
	RoleInformationServer    = core.RoleInformationServer
	RoleAggregateServer      = core.RoleAggregateServer
	RoleDirectoryServer      = core.RoleDirectoryServer
)

// ComponentMapping is the paper's Table 1.
var ComponentMapping = core.ComponentMapping

// ExperimentNames lists the runnable experiment sets: the paper's four
// plus the exp5 extension (the multi-layer aggregation architecture the
// paper's Section 3.6 proposes examining).
func ExperimentNames() []string {
	return []string{"exp1", "exp2", "exp3", "exp4", "exp5"}
}

// RunExperimentWorkers regenerates one of the paper's experiment sets,
// writing the four figure panels as text tables to w and returning the
// series. Valid names are exp1 (Figures 5–8), exp2 (9–12), exp3 (13–16),
// exp4 (17–20) and exp5 (the hierarchy extension). quick shortens the
// measurement window for smoke runs. A bounded worker pool measures up
// to workers sweep points concurrently (cmd/gridmon-bench's -parallel
// flag). Each point runs on its own sim.Env, so the series are
// bit-identical to a serial run (workers = 1) — only wall-clock changes.
func RunExperimentWorkers(name string, w io.Writer, quick bool, workers int) ([]experiments.Series, error) {
	cal := experiments.DefaultCalibration()
	par := experiments.PaperParams()
	par.Workers = workers
	userXs := experiments.UserCounts
	collXs := experiments.CollectorCounts
	xsAll := []int{10, 50, 100, 150, 200}
	xsPart := []int{10, 50, 100, 200, 350, 500}
	xsMgr := []int{10, 100, 200, 400, 600, 800, 1000}
	xsHier := []int{50, 100, 200, 300}
	if quick {
		par = experiments.QuickParams()
		par.Workers = workers
		userXs = []int{1, 50, 200, 600}
		collXs = []int{10, 50, 90}
		xsAll = []int{10, 100, 200}
		xsPart = []int{10, 200, 500}
		xsMgr = []int{10, 200, 1000}
		xsHier = []int{50, 200}
	}
	var series []experiments.Series
	var title, xLabel string
	switch name {
	case "exp1":
		title, xLabel = "Experiment Set 1: Information Server vs Users (Figures 5-8)", "users"
		series = experiments.Exp1InfoServerUsers(cal, userXs, par)
	case "exp2":
		title, xLabel = "Experiment Set 2: Directory Server vs Users (Figures 9-12)", "users"
		series = experiments.Exp2DirectoryUsers(cal, userXs, par)
	case "exp3":
		title, xLabel = "Experiment Set 3: Information Server vs Collectors (Figures 13-16)", "collectors"
		series = experiments.Exp3InfoServerCollectors(cal, collXs, par)
	case "exp4":
		title, xLabel = "Experiment Set 4: Aggregate Server vs Information Servers (Figures 17-20)", "servers"
		series = experiments.Exp4AggregateServers(cal, xsAll, xsPart, xsMgr, par)
	case "exp5":
		title, xLabel = "Experiment Set 5 (extension): Flat vs Two-Level GIIS Hierarchy", "servers"
		series = experiments.Exp5Hierarchy(cal, xsHier, par)
	default:
		return nil, fmt.Errorf("gridmon: unknown experiment %q (want exp1..exp5)", name)
	}
	if w != nil {
		fmt.Fprint(w, experiments.FormatSeries(title, xLabel, series))
	}
	return series, nil
}

// ExperimentCSV renders experiment series as CSV.
func ExperimentCSV(series []experiments.Series) string { return experiments.CSV(series) }
