package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	gridmon "repro"
)

// The workload generator. Every random choice of a run — the
// expression pools, the Zipf popularity of expressions and hosts, the
// per-query kind draw and the Poisson arrival schedule — comes from one
// seed, so the same seed gives a byte-identical query sequence and
// schedule. The program under test only ever sees the generated
// queries.

// kind is one (system, Table 1 role) cell of the query mix.
type kind int

const (
	kMDSInfo kind = iota
	kRGMAInfo
	kHawkInfo
	kMDSDir
	kRGMADir
	kHawkDir
	kMDSAgg
	kRGMAAgg
	kHawkAgg
	numKinds
)

var kindNames = [numKinds]string{
	"mds.info", "rgma.info", "hawkeye.info",
	"mds.dir", "rgma.dir", "hawkeye.dir",
	"mds.agg", "rgma.agg", "hawkeye.agg",
}

func (k kind) String() string { return kindNames[k] }

func (k kind) system() gridmon.System {
	return [3]gridmon.System{gridmon.MDS, gridmon.RGMA, gridmon.Hawkeye}[k%3]
}

// hostTargeted reports whether queries of this kind name one host (and
// are routed, not scattered, by a federation).
func (k kind) hostTargeted() bool { return k < kMDSDir }

// role is the facade role a query of this kind carries. The R-GMA
// aggregate is the mediated ConsumerServlet: an information-server
// query with no host, which is how an R-GMA user asks "the grid".
func (k kind) role() gridmon.Role {
	switch {
	case k < kMDSDir, k == kRGMAAgg:
		return gridmon.RoleInformationServer
	case k < kMDSAgg:
		return gridmon.RoleDirectoryServer
	default:
		return gridmon.RoleAggregateServer
	}
}

// shape is one pool entry: an expression in a system's dialect plus the
// projection that rides with it. varying marks a predicate over a
// sensor value that changes every monitoring round, so the number of
// matching records is not fixed across the run.
type shape struct {
	expr    string
	attrs   []string
	varying bool
}

// genQuery is one distinct generated query with what the run checks
// about its answers.
type genQuery struct {
	kind kind
	q    gridmon.Query
	// varying: the record count depends on the round (see shape).
	varying bool
}

// generator holds one seed's inputs.
type generator struct {
	hosts   []string
	pools   [3][]shape // by system: LDAP, SQL, ClassAd
	queries []genQuery // the distinct queries, in first-use order
	seq     []uint32   // the query sequence, as indexes into queries
}

// seqLen is how many queries are generated up front; users and the
// open-loop dispatcher wrap around if a run consumes more.
const seqLen = 1 << 18

// hostNames returns node01..nodeNN.
func hostNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%02d", i+1)
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. math/rand's Zipf needs s > 1, and the expression
// exponent is exactly 1, so this inverts the cumulative weights.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cum, rng.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// pick returns one of opts.
func pick[T any](rng *rand.Rand, opts []T) T { return opts[rng.Intn(len(opts))] }

// The pool templates. Rank k of a pool always uses template k mod
// len(templates), and every choice that decides what a query costs — the
// projection, the column list, which class or metric, the whole part of
// a threshold that splits the data — is drawn from det, a stream fixed
// by the rank alone. The seed's stream supplies only what leaves the
// cost alone: thresholds every record passes, and the decimals of the
// ones that split (a thousandth of a unit moves a selectivity by a
// hundredth of a percent). So a query of a given rank matches the same
// records under every seed, while no two seeds send the same strings: a
// compiled-query or result cache cannot learn them. (With whole
// thresholds drawn from the seed, allocations per query moved 2% from
// seed to seed, more than from run to run.)
type template func(det, rng *rand.Rand) shape

var ldapTemplates = []template{
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(&(objectclass=MdsCpu)(Mds-Cpu-Free-1minX100>=%d))", 10+rng.Intn(10)),
			attrs: pick(det, [][]string{nil, {"Mds-Cpu-Free-1minX100"}, {"Mds-Cpu-Free-1minX100", "Mds-Cpu-Free-5minX100", "Mds-Cpu-speedMHz"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(&(objectclass=MdsMemoryRam)(Mds-Memory-Ram-freeMB>=%d))", 50+rng.Intn(40)),
			attrs: pick(det, [][]string{nil, {"Mds-Memory-Ram-freeMB"}, {"Mds-Memory-Ram-freeMB", "Mds-Memory-Vm-freeMB"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(&(objectclass=MdsFilesystem)(Mds-Fs-freeMB>=%d))", 5000+rng.Intn(4000)),
			attrs: pick(det, [][]string{nil, {"Mds-Fs-freeMB", "Mds-Fs-mount"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(|(objectclass=MdsHostLoad)(&(objectclass=%s)(Mds-Device-Group-name=*)))",
			pick(det, []string{"MdsCpu", "MdsUsers", "MdsNet", "MdsOs"})),
			attrs: pick(det, [][]string{nil, {"Mds-Load-1min", "Mds-Load-5min"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(Mds-Load-1min<=%.3f)", 2+rng.Float64()),
			attrs: pick(det, [][]string{nil, {"Mds-Load-1min"}})}
	},
	func(det, rng *rand.Rand) shape {
		// A substring assertion: not plannable, so the engine scans.
		return shape{expr: pick(det, []string{"(Mds-Fs-mount=/s*)", "(Mds-Os-release=2.4*)", "(Mds-Cpu-model=Pent*)", "(Mds-Device-Group-name=fs-*)"})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("(objectclass=%s)",
			pick(det, []string{"MdsHost", "MdsOs", "MdsNet", "MdsGramJobQueue", "MdsSoftwareDeployment", "MdsUsers"}))}
	},
}

var sqlColumns = [][]string{nil, {"host", "value"}, {"host", "metric", "value"}, {"metric", "value", "ts"}}

func sqlSelect(cols []string) string {
	if len(cols) == 0 {
		return "SELECT * FROM siteinfo"
	}
	return "SELECT " + strings.Join(cols, ", ") + " FROM siteinfo"
}

var sqlTemplates = []template{
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("%s WHERE ts >= %d", sqlSelect(pick(det, sqlColumns)), -1000+rng.Intn(1000)),
			attrs: pick(det, [][]string{nil, {"value"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("%s WHERE value >= %d.%03d", sqlSelect(pick(det, sqlColumns)), 45+det.Intn(10), rng.Intn(1000)), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("%s WHERE metric = 'metric-%02d' AND ts >= %d", sqlSelect(pick(det, sqlColumns)), det.Intn(5), -1000+rng.Intn(1000)),
			attrs: pick(det, [][]string{nil, {"value"}})}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("%s WHERE metric = 'metric-%02d' AND value < %d.%03d",
			sqlSelect(pick(det, sqlColumns)), det.Intn(5), 45+det.Intn(10), rng.Intn(1000)), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("SELECT host, metric, value FROM siteinfo WHERE ts >= %d ORDER BY value DESC LIMIT %d",
			-1000+rng.Intn(1000), 3+det.Intn(6))}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("SELECT host, value FROM siteinfo WHERE value >= %d.%03d OR metric = 'metric-%02d'",
			60+det.Intn(10), rng.Intn(1000), det.Intn(5)), varying: true, attrs: pick(det, [][]string{nil, {"host", "value"}})}
	},
}

var adAttrs = [][]string{nil, {"Name", "CpuLoad"}, {"Name", "CpuLoad", "MemFreeMB", "LoadAvg1"}, {"Name", "OpSys", "FreeDiskMB"}}

var classadTemplates = []template{
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("TARGET.CpuLoad > %d.%03d", 45+det.Intn(10), rng.Intn(1000)), attrs: pick(det, adAttrs), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("TARGET.MemFreeMB >= %d.%03d && TARGET.CpuLoad < %d.%03d", 190+det.Intn(20), rng.Intn(1000), 70+det.Intn(10), rng.Intn(1000)),
			attrs: pick(det, adAttrs), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf(`TARGET.OpSys == "LINUX" && TARGET.TotalDiskMB > %d`, 1000+rng.Intn(1000)), attrs: pick(det, adAttrs)}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("TARGET.LoadAvg1 < 0.%02d%03d", 95+det.Intn(5), rng.Intn(1000)), attrs: pick(det, adAttrs), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("TARGET.FreeDiskMB > %d || TARGET.TmpUsedMB < %d.%03d", 19000+20*det.Intn(100)+rng.Intn(20), 230+det.Intn(40), rng.Intn(1000)),
			attrs: pick(det, adAttrs), varying: true}
	},
	func(det, rng *rand.Rand) shape {
		return shape{expr: fmt.Sprintf("TARGET.CondorRunning && TARGET.MemTotalMB >= %d", 100+rng.Intn(400)), attrs: pick(det, adAttrs)}
	},
}

// buildPool fills a pool of n distinct shapes. Two ranks of one
// template can draw the same threshold; trailing whitespace, which all
// three dialects ignore, then makes the text distinct for the engines
// and caches without changing what it selects.
func buildPool(rng *rand.Rand, templates []template, n int) []shape {
	pool := make([]shape, 0, n)
	seen := make(map[string]bool, n)
	key := func(sh shape) string { return sh.expr + "\x00" + strings.Join(sh.attrs, ",") }
	for rank := 0; rank < n; rank++ {
		det := rand.New(rand.NewSource(int64(rank)))
		sh := templates[rank%len(templates)](det, rng)
		for seen[key(sh)] {
			sh.expr += " "
		}
		seen[key(sh)] = true
		pool = append(pool, sh)
	}
	return pool
}

// mix is a workload's share of each query kind, in the order of the
// kind constants.
type mix [numKinds]float64

// newGenerator builds the pools and the query sequence for one seed.
// shapes bounds how many pool ranks the sequence draws from (the
// cached workload keeps its key population under the cache cap).
func newGenerator(seed int64, shapes int, m mix) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{hosts: hostNames(numHosts)}
	g.pools[0] = buildPool(rng, ldapTemplates, poolSize)
	g.pools[1] = buildPool(rng, sqlTemplates, poolSize)
	g.pools[2] = buildPool(rng, classadTemplates, poolSize)

	// Hosts are interchangeable in cost, so the seed also decides which
	// of them are the popular ones.
	hostRank := rng.Perm(numHosts)
	exprZipf := newZipf(shapes, 1.0)
	hostZipf := newZipf(numHosts, 1.1)
	var cum [numKinds]float64
	total := 0.0
	for k, w := range m {
		total += w
		cum[k] = total
	}

	index := make(map[[3]int]uint32)
	g.seq = make([]uint32, seqLen)
	for i := range g.seq {
		u := rng.Float64() * total
		k := kind(sort.SearchFloat64s(cum[:], u))
		if k >= numKinds {
			k = numKinds - 1
		}
		si := exprZipf.draw(rng)
		if k == kRGMADir {
			// The Registry's directory query takes a table name, not SQL,
			// and there are two of those: every rank is one or the other.
			si %= 2
		}
		hi := -1
		if k.hostTargeted() {
			hi = hostRank[hostZipf.draw(rng)]
		}
		key := [3]int{int(k), si, hi}
		id, ok := index[key]
		if !ok {
			id = uint32(len(g.queries))
			index[key] = id
			g.queries = append(g.queries, g.makeQuery(k, si, hi))
		}
		g.seq[i] = id
	}
	return g
}

func (g *generator) makeQuery(k kind, si, hi int) genQuery {
	sh := g.pools[k%3][si]
	q := gridmon.Query{System: k.system(), Role: k.role(), Expr: sh.expr, Attrs: sh.attrs}
	if hi >= 0 {
		q.Host = g.hosts[hi]
	}
	varying := sh.varying
	if k == kRGMADir {
		q.Expr = []string{"", "siteinfo"}[si]
		q.Attrs = nil
		varying = false
	}
	return genQuery{kind: k, q: q, varying: varying}
}

// poissonSchedule returns n arrival offsets (ns from the step start)
// of a Poisson process with the given rate, from its own stream of the
// seed so the schedule does not depend on how many queries were drawn.
func poissonSchedule(seed int64, step int, rate float64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(step) + 1))
	out := make([]int64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = int64(t * 1e9)
	}
	return out
}
