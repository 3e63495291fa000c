// Package hawkeye implements Condor's Hawkeye monitoring tool: Modules
// (sensors advertising ClassAds), Agents (which collect every Module
// straight into a single Startd ClassAd and push it to a Manager at fixed
// intervals), and the Manager (an indexed resident ClassAd database
// answering queries and matching Trigger ClassAds). It is built on the
// classad package.
package hawkeye

import (
	"fmt"

	"repro/internal/classad"
)

// Module is a Hawkeye sensor: it advertises resource information as
// ClassAd attributes. ExecWeight scales the testbed's per-collection cost
// (1.0 = the default "vmstat"-class module).
type Module struct {
	Name       string
	ExecWeight float64
	// Fill binds the module's attributes for host at time now into ad.
	// An Agent runs every module's Fill into one Startd ad, in order; a
	// name bound twice keeps its first spelling and position and the
	// last value.
	Fill func(ad *classad.Ad, host string, now float64)

	// attrs is how many attributes Fill binds, which sizes the ad it
	// fills before collection; a module that leaves it zero still works,
	// its attributes just grow the ad.
	attrs int
}

// Collect runs the module alone: its attributes in a fresh ClassAd.
func (m *Module) Collect(host string, now float64) *classad.Ad {
	ad := classad.NewAdSized(m.attrs)
	m.Fill(ad, host, now)
	return ad
}

// The default modules' attribute names, folded once.
var (
	attrCpuLoad       = classad.NewName("CpuLoad")
	attrCpuIdle       = classad.NewName("CpuIdle")
	attrSwapUsedMB    = classad.NewName("SwapUsedMB")
	attrMemTotalMB    = classad.NewName("MemTotalMB")
	attrMemFreeMB     = classad.NewName("MemFreeMB")
	attrFreeDiskMB    = classad.NewName("FreeDiskMB")
	attrTotalDiskMB   = classad.NewName("TotalDiskMB")
	attrNetRxKBs      = classad.NewName("NetRxKBs")
	attrNetTxKBs      = classad.NewName("NetTxKBs")
	attrLoadAvg1      = classad.NewName("LoadAvg1")
	attrLoadAvg5      = classad.NewName("LoadAvg5")
	attrLoadAvg15     = classad.NewName("LoadAvg15")
	attrUptime        = classad.NewName("UptimeSeconds")
	attrLoggedInUsers = classad.NewName("LoggedInUsers")
	attrProcessCount  = classad.NewName("ProcessCount")
	attrZombieCount   = classad.NewName("ZombieCount")
	attrOpSys         = classad.NewName("OpSys")
	attrKernelVersion = classad.NewName("KernelVersion")
	attrCondorVersion = classad.NewName("CondorVersion")
	attrCondorRunning = classad.NewName("CondorRunning")
	attrTmpUsedMB     = classad.NewName("TmpUsedMB")
)

// DefaultModules returns the eleven modules of a standard Hawkeye install
// (the paper: "Hawkeye uses 11 Modules in a standard install").
func DefaultModules() []*Module {
	mk := func(name string, attrs int, fill func(ad *classad.Ad, host string, now float64)) *Module {
		return &Module{Name: name, ExecWeight: 1.0, Fill: fill, attrs: attrs}
	}
	reading := func(ad *classad.Ad, n classad.Name, v float64) { ad.SetNamed(n, classad.Real(v)) }
	return []*Module{
		mk("vmstat", 3, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrCpuLoad, 100*noise(now, host, 1))
			reading(ad, attrCpuIdle, 100*(1-noise(now, host, 1)))
			reading(ad, attrSwapUsedMB, 200*noise(now, host, 2))
		}),
		mk("memory", 2, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrMemTotalMB, 512)
			reading(ad, attrMemFreeMB, 100+300*noise(now, host, 3))
		}),
		mk("disk", 2, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrFreeDiskMB, 10000+20000*noise(now, host, 4))
			reading(ad, attrTotalDiskMB, 40000)
		}),
		mk("network", 2, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrNetRxKBs, 1000*noise(now, host, 5))
			reading(ad, attrNetTxKBs, 1000*noise(now, host, 6))
		}),
		mk("load", 3, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrLoadAvg1, 2*noise(now, host, 7))
			reading(ad, attrLoadAvg5, 2*noise(now, host, 8))
			reading(ad, attrLoadAvg15, 2*noise(now, host, 9))
		}),
		mk("uptime", 1, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrUptime, now+86400)
		}),
		mk("users", 1, func(ad *classad.Ad, host string, now float64) {
			ad.SetNamed(attrLoggedInUsers, classad.Int(int64(1+5*noise(now, host, 10))))
		}),
		mk("processes", 2, func(ad *classad.Ad, host string, now float64) {
			ad.SetNamed(attrProcessCount, classad.Int(int64(40+100*noise(now, host, 11))))
			ad.SetNamed(attrZombieCount, classad.Int(int64(3*noise(now, host, 12))))
		}),
		mk("os", 2, func(ad *classad.Ad, host string, now float64) {
			ad.SetNamed(attrOpSys, classad.Str("LINUX"))
			ad.SetNamed(attrKernelVersion, classad.Str("2.4.10"))
		}),
		mk("condor", 2, func(ad *classad.Ad, host string, now float64) {
			ad.SetNamed(attrCondorVersion, classad.Str("6.4.7"))
			ad.SetNamed(attrCondorRunning, classad.Bool(true))
		}),
		mk("tmpfiles", 1, func(ad *classad.Ad, host string, now float64) {
			reading(ad, attrTmpUsedMB, 500*noise(now, host, 13))
		}),
	}
}

// VmstatModuleCopies returns n additional instances of the vmstat module,
// the way the paper scaled an Agent to 90 Modules in Experiment Set 3.
// Each instance publishes under distinct attribute names so the Startd
// ClassAd grows with the module count; the names are built and folded
// here, not on every collection.
func VmstatModuleCopies(n int) []*Module {
	out := make([]*Module, 0, n)
	for i := 0; i < n; i++ {
		cpuLoad := classad.NewName(fmt.Sprintf("CpuLoad_%02d", i))
		swapUsed := classad.NewName(fmt.Sprintf("SwapUsedMB_%02d", i))
		cpuStream, swapStream := uint64(100+i), uint64(200+i)
		out = append(out, &Module{
			Name:       fmt.Sprintf("vmstat-%02d", i),
			ExecWeight: 1.0,
			Fill: func(ad *classad.Ad, host string, now float64) {
				ad.SetNamed(cpuLoad, classad.Real(100*noise(now, host, cpuStream)))
				ad.SetNamed(swapUsed, classad.Real(200*noise(now, host, swapStream)))
			},
			attrs: 2,
		})
	}
	return out
}

// noise is a deterministic stand-in for sensor variation in [0,1).
func noise(now float64, host string, stream uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint64(host[i])) * 1099511628211
	}
	h ^= stream * 0x9e3779b97f4a7c15
	h ^= uint64(int64(now)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}
