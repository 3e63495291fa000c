package hawkeye

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/classad"
)

// Trigger pairs a Trigger ClassAd with the job to run on a match — the
// paper's example is a trigger for CpuLoad > 50 whose job kills Netscape
// on the matched machine.
type Trigger struct {
	Name string
	Ad   *classad.Ad
	// Fire is invoked for each Startd ClassAd the trigger matches. The
	// string is the matched machine's Name attribute.
	Fire func(machine string, ad *classad.Ad)

	// compiled is the trigger ad prepared for repeated matchmaking,
	// built by SubmitTrigger so every subsequent Update matches without
	// re-resolving the Requirements expression. The Manager's own lock
	// protects it (out of lockcheck's sibling-mutex grammar).
	compiled *classad.CompiledMatch
}

// Manager is the head computer of a Hawkeye Pool: it collects Startd
// ClassAds from registered Agents into an indexed resident database,
// answers status queries about pool members, and performs ClassAd
// Matchmaking between submitted Trigger ClassAds and Startd ClassAds.
// It is safe for concurrent use: the live server advertises from a
// background goroutine while serving queries, and queries themselves
// run in parallel — reads take a shared lock when no ad can have
// expired (AdLifetime zero, the facade's configuration), upgrading to
// the exclusive lock only when expiry must mutate the pool. Updates
// swap whole-ad pointers, so a result set handed out under the read
// lock stays a consistent snapshot. Trigger Fire callbacks run after
// the Manager's lock is released, so they may call back into it (e.g.
// RemoveTrigger for one-shot triggers).
type Manager struct {
	Name string
	// AdLifetime expires pool members that stop advertising. Zero means
	// ads never expire.
	AdLifetime float64

	mu       sync.RWMutex
	ads      map[string]*machineAd // indexed by lowercase machine name; guarded by mu
	order    []string              // ad insertion order; guarded by mu
	triggers []*Trigger            // guarded by mu
}

// machineAd is one pool member's latest advertisement. Update installs
// a whole ad at a time and nothing edits it afterwards, so its wire
// size is taken once, under the write lock Update already holds.
type machineAd struct {
	name    string
	ad      *classad.Ad
	size    int // ad.SizeBytes()
	expires float64
}

// NewManager creates an empty Manager.
func NewManager(name string, adLifetime float64) *Manager {
	return &Manager{Name: name, AdLifetime: adLifetime, ads: make(map[string]*machineAd)}
}

// lockForRead takes the lock a read at time now needs: the shared lock
// when no ad can expire (AdLifetime zero — reads mutate nothing and run
// in parallel), otherwise the exclusive lock with expiry applied first.
// It returns the lock to unlock, as an interface that costs no
// allocation, unlike a method value.
//
// locks mu (for the calling function, until the returned Locker unlocks).
func (m *Manager) lockForRead(now float64) sync.Locker {
	if m.AdLifetime <= 0 {
		m.mu.RLock()
		return m.mu.RLocker()
	}
	m.mu.Lock()
	m.expire(now)
	return &m.mu
}

// NumMachines reports the number of live pool members at time now.
func (m *Manager) NumMachines(now float64) int {
	defer m.lockForRead(now).Unlock()
	return len(m.ads)
}

// firing is one matched trigger whose Fire callback is pending; matches
// are collected under the lock and fired after it is released, so
// callbacks may call back into the Manager.
type firing struct {
	tr      *Trigger
	machine string
	ad      *classad.Ad
}

func fire(firings []firing) {
	for _, f := range firings {
		if f.tr.Fire != nil {
			f.tr.Fire(f.machine, f.ad)
		}
	}
}

// Update ingests a Startd ClassAd (the hawkeye_advertise path). The ad
// must carry a Name attribute identifying the machine, and belongs to
// the Manager from here on: the caller must not modify it. Matching
// triggers fire immediately. It returns the number of triggers fired.
func (m *Manager) Update(now float64, ad *classad.Ad) (int, error) {
	m.mu.Lock()
	nameV := ad.Eval("Name")
	name, ok := nameV.StringVal()
	if !ok || name == "" {
		m.mu.Unlock()
		return 0, fmt.Errorf("hawkeye: advertised ad has no Name")
	}
	rec, exists := m.lookup(name)
	if !exists {
		key := string(foldASCII(nil, name))
		rec = &machineAd{name: name}
		m.ads[key] = rec
		m.order = append(m.order, key)
	}
	rec.ad = ad
	rec.size = ad.SizeBytes()
	rec.expires = now + m.AdLifetime
	var firings []firing
	for _, tr := range m.triggers {
		if tr.compiled.Matches(ad) {
			firings = append(firings, firing{tr: tr, machine: name, ad: ad})
		}
	}
	m.mu.Unlock()
	fire(firings)
	return len(firings), nil
}

// expire drops pool members whose ads lapsed. Callers hold mu.
func (m *Manager) expire(now float64) {
	if m.AdLifetime <= 0 {
		return
	}
	kept := m.order[:0]
	for _, key := range m.order {
		if now >= m.ads[key].expires {
			delete(m.ads, key)
			continue
		}
		kept = append(kept, key)
	}
	m.order = kept
}

// QueryByName answers a pool-member status query through the name index —
// no scan, the "indexed resident database" advantage the paper credits for
// the Manager's efficiency.
func (m *Manager) QueryByName(now float64, name string) (*classad.Ad, QueryStats, bool) {
	defer m.lockForRead(now).Unlock()
	rec, ok := m.lookup(name)
	if !ok {
		return nil, QueryStats{}, false
	}
	st := QueryStats{AdsReturned: 1, ResponseBytes: rec.size, IndexHits: 1}
	return rec.ad, st, true
}

// Query scans every Startd ClassAd and returns those matching the
// constraint expression. A nil constraint returns everything. The paper's
// worst case — a constraint met by no machine — still scans the full
// pool; the constraint is compiled once per query so the scan does not
// re-resolve its attribute references per machine.
func (m *Manager) Query(now float64, constraint classad.Expr) ([]*classad.Ad, QueryStats) {
	return m.QueryInto(now, constraint, nil)
}

// QueryInto is Query appending the matching ads to out, so a caller
// that lends the same slice from query to query scans without growing
// one. The ads are the pool's own: read them, never write them.
func (m *Manager) QueryInto(now float64, constraint classad.Expr, out []*classad.Ad) ([]*classad.Ad, QueryStats) {
	defer m.lockForRead(now).Unlock()
	st := QueryStats{ScanFallbacks: 1}
	cc := compile(constraint)
	defer release(cc)
	for _, key := range m.order {
		rec := m.ads[key]
		st.AdsScanned++
		if cc != nil && !cc.SatisfiedBy(rec.ad) {
			continue
		}
		out = append(out, rec.ad)
		st.AdsReturned++
		st.ResponseBytes += rec.size
	}
	return out, st
}

// SubmitTrigger installs a Trigger ClassAd. Matchmaking runs against the
// current pool immediately (returning the fire count) and then on every
// subsequent Update.
func (m *Manager) SubmitTrigger(now float64, tr *Trigger) int {
	m.mu.Lock()
	m.expire(now)
	tr.compiled = classad.CompileMatch(tr.Ad)
	m.triggers = append(m.triggers, tr)
	var firings []firing
	for _, key := range m.order {
		rec := m.ads[key]
		if tr.compiled.Matches(rec.ad) {
			firings = append(firings, firing{tr: tr, machine: rec.name, ad: rec.ad})
		}
	}
	m.mu.Unlock()
	fire(firings)
	return len(firings)
}

// NumTriggers reports the number of installed triggers.
func (m *Manager) NumTriggers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.triggers)
}

// RemoveTrigger uninstalls the named trigger, reporting whether it existed.
func (m *Manager) RemoveTrigger(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, tr := range m.triggers {
		if tr.Name == name {
			m.triggers = append(m.triggers[:i], m.triggers[i+1:]...)
			return true
		}
	}
	return false
}

// Machines lists live pool-member names in sorted order.
func (m *Manager) Machines(now float64) []string {
	defer m.lockForRead(now).Unlock()
	out := make([]string, 0, len(m.order))
	for _, key := range m.order {
		out = append(out, m.ads[key].name)
	}
	sort.Strings(out)
	return out
}

// AgentAddress resolves a pool member's contact address. Clients querying
// an Agent directly must first ask the Manager for the Agent's address,
// the two-step lookup the paper describes.
func (m *Manager) AgentAddress(now float64, name string) (string, bool) {
	defer m.lockForRead(now).Unlock()
	rec, ok := m.lookup(name)
	if !ok {
		return "", false
	}
	return rec.name + ":hawkeye-agent", true
}

// lookup finds a pool member by machine name in any ASCII case.
// Callers hold mu.
func (m *Manager) lookup(name string) (*machineAd, bool) {
	var buf [64]byte // machine names are host names; longer ones spill to the heap
	rec, ok := m.ads[string(foldASCII(buf[:0], name))]
	return rec, ok
}

// foldASCII appends s to dst with ASCII letters lower-cased — the
// pool's machine-name key.
func foldASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// constraints pools the compiled constraints queries evaluate in.
var constraints = sync.Pool{New: func() any { return new(classad.CompiledConstraint) }}

// compile compiles constraint into pooled scratch (nil for none).
func compile(constraint classad.Expr) *classad.CompiledConstraint {
	if constraint == nil {
		return nil
	}
	cc := constraints.Get().(*classad.CompiledConstraint)
	*cc = classad.CompileConstraint(constraint)
	return cc
}

// release gives cc back holding no expression and no ad.
func release(cc *classad.CompiledConstraint) {
	if cc != nil {
		*cc = classad.CompiledConstraint{}
		constraints.Put(cc)
	}
}
