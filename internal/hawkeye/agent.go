package hawkeye

import (
	"fmt"

	"repro/internal/classad"
)

// MaxModules is the most Modules an Agent can register: the paper found
// that the 99th Module crashed the Startd.
const MaxModules = 98

// ErrStartdCrash reports that the Agent exceeded a hard Startd limit.
type ErrStartdCrash struct{ Msg string }

func (e ErrStartdCrash) Error() string { return "hawkeye: startd crash: " + e.Msg }

// QueryStats counts the work an Agent or Manager performed for one
// request; the testbed's calibration converts counts into CPU seconds.
type QueryStats struct {
	// ModulesCollected counts module executions (the Agent re-collects on
	// every query — it has no resident database).
	ModulesCollected int
	// ModuleExecWeight sums executed modules' weights.
	ModuleExecWeight float64
	// AdsScanned counts ClassAds examined by a Manager scan.
	AdsScanned int
	// AdsReturned counts ClassAds in the result.
	AdsReturned int
	// ResponseBytes is the unparsed size of the result.
	ResponseBytes int
	// IndexHits counts ads served through the Manager's name index.
	IndexHits int
	// ScanFallbacks counts queries that scanned the full pool.
	ScanFallbacks int
}

// Add accumulates other into s.
func (s *QueryStats) Add(other QueryStats) {
	s.ModulesCollected += other.ModulesCollected
	s.ModuleExecWeight += other.ModuleExecWeight
	s.AdsScanned += other.AdsScanned
	s.AdsReturned += other.AdsReturned
	s.ResponseBytes += other.ResponseBytes
	s.IndexHits += other.IndexHits
	s.ScanFallbacks += other.ScanFallbacks
}

// Agent is a Hawkeye Monitoring Agent: it runs on a pool member, collects
// its Modules into a single Startd ClassAd, and sends that ad to its
// Manager at fixed intervals. Direct queries re-collect every module —
// the Agent holds no indexed resident database, the property the paper
// uses to explain its query costs. A collection builds one ad, sized for
// the modules, and each module fills it in place.
type Agent struct {
	Host string
	// AdvertiseInterval is the Startd ClassAd push period (30 s in the
	// paper's experiments).
	AdvertiseInterval float64

	modules []*Module
}

// NewAgent creates an Agent with no modules.
func NewAgent(host string, advertiseInterval float64) *Agent {
	return &Agent{Host: host, AdvertiseInterval: advertiseInterval}
}

// AddModule registers a module, crashing (returning ErrStartdCrash) past
// MaxModules exactly as the paper observed.
func (a *Agent) AddModule(m *Module) error {
	if len(a.modules) >= MaxModules {
		return ErrStartdCrash{Msg: fmt.Sprintf("module %q is number %d, limit %d", m.Name, len(a.modules)+1, MaxModules)}
	}
	a.modules = append(a.modules, m)
	return nil
}

// AddModules registers several modules, stopping at the first failure.
func (a *Agent) AddModules(ms []*Module) error {
	for _, m := range ms {
		if err := a.AddModule(m); err != nil {
			return err
		}
	}
	return nil
}

// NumModules reports the number of registered modules.
func (a *Agent) NumModules() int { return len(a.modules) }

// The Startd ad's identity attributes.
var (
	attrName   = classad.NewName("Name")
	attrMyType = classad.NewName("MyType")
)

// StartdAd collects every module into a single fresh Startd ClassAd
// carrying the host identity. The ad is new on every call and belongs to
// the caller, which may hand it to a Manager.
func (a *Agent) StartdAd(now float64) (*classad.Ad, QueryStats) {
	ad := a.newAd()
	return ad, a.collect(ad, now)
}

// newAd is an empty ad with room for the Startd ad's attributes.
func (a *Agent) newAd() *classad.Ad {
	n := 2
	for _, m := range a.modules {
		n += m.attrs
	}
	return classad.NewAdSized(n)
}

// collect fills ad, which is empty, with the host identity and every
// module's attributes.
func (a *Agent) collect(ad *classad.Ad, now float64) QueryStats {
	ad.SetNamed(attrName, classad.Str(a.Host))
	ad.SetNamed(attrMyType, classad.Str("Machine"))
	var st QueryStats
	for _, m := range a.modules {
		m.Fill(ad, a.Host, now)
		st.ModulesCollected++
		st.ModuleExecWeight += m.ExecWeight
	}
	return st
}

// Query answers a direct query about this Agent: the constraint expression
// is evaluated against a freshly collected Startd ClassAd, which is
// returned when it matches. A nil constraint always matches.
func (a *Agent) Query(now float64, constraint classad.Expr) (*classad.Ad, QueryStats) {
	return a.QueryInto(now, constraint, a.newAd())
}

// QueryInto is Query collecting into ad, which it empties first, keeping
// the room it has: a caller that lends one ad from query to query still
// collects every module on every query, but builds no ad. The ad
// returned on a match is ad.
func (a *Agent) QueryInto(now float64, constraint classad.Expr, ad *classad.Ad) (*classad.Ad, QueryStats) {
	ad.Reset()
	st := a.collect(ad, now)
	match := true
	if cc := compile(constraint); cc != nil {
		match = cc.SatisfiedBy(ad)
		release(cc)
	}
	st.AdsScanned = 1
	if !match {
		return nil, st
	}
	st.AdsReturned = 1
	st.ResponseBytes = ad.SizeBytes()
	return ad, st
}

// QueryModule answers a query about one named module's attributes only
// (the paper: "An Agent can also directly answer queries about a
// particular Module").
func (a *Agent) QueryModule(now float64, moduleName string) (*classad.Ad, QueryStats, error) {
	for _, m := range a.modules {
		if m.Name == moduleName {
			ad := m.Collect(a.Host, now)
			st := QueryStats{
				ModulesCollected: 1,
				ModuleExecWeight: m.ExecWeight,
				AdsReturned:      1,
				ResponseBytes:    ad.SizeBytes(),
			}
			return ad, st, nil
		}
	}
	return nil, QueryStats{}, fmt.Errorf("hawkeye: agent %s has no module %q", a.Host, moduleName)
}
