// Package mds implements the Globus Toolkit Monitoring and Discovery
// Service (MDS 2.1): information providers, the resource-level GRIS with
// its TTL cache, and the aggregating GIIS with soft-state registration —
// all on the ldap directory engine.
package mds

import (
	"fmt"

	"repro/internal/ldap"
)

// SuffixDN is the directory suffix MDS publishes under.
var SuffixDN = ldap.MustParseDN("Mds-Vo-name=local, o=grid")

// suffixBase is SuffixDN normalized once, the base of every GIIS search.
var suffixBase = ldap.NewBase(SuffixDN)

// Provider is an MDS information provider: a program the GRIS forks to
// produce directory entries about one aspect of a resource. ForkWeight
// scales the cost the testbed charges per invocation (1.0 = the default
// provider script).
type Provider struct {
	Name       string
	ForkWeight float64
	// Generate produces the provider's entries for the given host at
	// (simulated or wall) time now.
	Generate func(host string, now float64) []*ldap.Entry
}

// hostDN returns the host's DN under the MDS suffix.
func hostDN(host string) ldap.DN {
	return SuffixDN.Child("Mds-Host-hn", host)
}

// deviceEntry creates one provider output entry under the host, its
// attributes set in the order given: pairs holds name, value, name,
// value, … so an entry's byte order is the same on every run.
func deviceEntry(host, class, device string, pairs ...string) *ldap.Entry {
	dn := hostDN(host).Child("Mds-Device-Group-name", device)
	e := ldap.NewEntry(dn)
	e.Set("objectclass", class)
	e.Set("Mds-Device-Group-name", device)
	for i := 0; i+1 < len(pairs); i += 2 {
		e.Set(pairs[i], pairs[i+1])
	}
	return e
}

// fmtF renders a float attribute value.
func fmtF(f float64) string { return fmt.Sprintf("%.2f", f) }

// DefaultProviders returns the standard complement of ten information
// providers that a stock MDS 2.1 install runs (CPU, memory, filesystem,
// OS, network, and friends). The varying inputs keep successive
// invocations from producing byte-identical data, like real sensors.
func DefaultProviders() []*Provider {
	mk := func(name string, gen func(host string, now float64) []*ldap.Entry) *Provider {
		return &Provider{Name: name, ForkWeight: 1.0, Generate: gen}
	}
	return []*Provider{
		mk("cpu", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsCpu", "cpu",
				"Mds-Cpu-Total-count", "2",
				"Mds-Cpu-speedMHz", "1133",
				"Mds-Cpu-Free-1minX100", fmtF(50+40*pseudo(now, host, 1)),
				"Mds-Cpu-Free-5minX100", fmtF(50+30*pseudo(now, host, 2)),
				"Mds-Cpu-vendor", "Intel",
				"Mds-Cpu-model", "Pentium III",
				"Mds-Cpu-Cache-l2kB", "512",
			)}
		}),
		mk("memory", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsMemoryRam", "memory",
				"Mds-Memory-Ram-Total-sizeMB", "512",
				"Mds-Memory-Ram-freeMB", fmtF(100+300*pseudo(now, host, 3)),
				"Mds-Memory-Vm-Total-sizeMB", "1024",
				"Mds-Memory-Vm-freeMB", fmtF(500+400*pseudo(now, host, 4)),
			)}
		}),
		mk("filesystem", func(host string, now float64) []*ldap.Entry {
			var out []*ldap.Entry
			for _, fs := range []string{"root", "scratch"} {
				out = append(out, deviceEntry(host, "MdsFilesystem", "fs-"+fs,
					"Mds-Fs-Total-sizeMB", "40000",
					"Mds-Fs-freeMB", fmtF(10000+20000*pseudo(now, host+fs, 5)),
					"Mds-Fs-mount", "/"+fs,
				))
			}
			return out
		}),
		mk("os", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsOs", "os",
				"Mds-Os-name", "Linux",
				"Mds-Os-release", "2.4.10",
			)}
		}),
		mk("net", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsNet", "eth0",
				"Mds-Net-Total-count", "1",
				"Mds-Net-name", "eth0",
				"Mds-Net-speedMbps", "100",
			)}
		}),
		mk("host", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsHost", "hostinfo",
				"Mds-Host-hn", host,
			)}
		}),
		mk("queue", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsGramJobQueue", "jobqueue",
				"Mds-Gram-Job-Queue-maxcount", "64",
				"Mds-Gram-Job-Queue-jobcount", fmt.Sprintf("%d", int(10*pseudo(now, host, 6))),
			)}
		}),
		mk("software", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsSoftwareDeployment", "globus",
				"Mds-Software-deployment", "globus-2.2",
			)}
		}),
		mk("loadavg", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsHostLoad", "load",
				"Mds-Load-1min", fmtF(2*pseudo(now, host, 7)),
				"Mds-Load-5min", fmtF(2*pseudo(now, host, 8)),
				"Mds-Load-15min", fmtF(2*pseudo(now, host, 9)),
			)}
		}),
		mk("users", func(host string, now float64) []*ldap.Entry {
			return []*ldap.Entry{deviceEntry(host, "MdsUsers", "users",
				"Mds-Users-count", fmt.Sprintf("%d", 1+int(5*pseudo(now, host, 10))),
			)}
		}),
	}
}

// MemoryProviderCopies returns n copies of the default memory information
// provider, the way the paper expanded a GRIS to up to 90 information
// providers for Experiment Set 3.
func MemoryProviderCopies(n int) []*Provider {
	out := make([]*Provider, 0, n)
	for i := 0; i < n; i++ {
		i := i
		out = append(out, &Provider{
			Name:       fmt.Sprintf("memory-%02d", i),
			ForkWeight: 1.0,
			Generate: func(host string, now float64) []*ldap.Entry {
				return []*ldap.Entry{deviceEntry(host, "MdsMemoryRam", fmt.Sprintf("memory-%02d", i),
					"Mds-Memory-Ram-Total-sizeMB", "512",
					"Mds-Memory-Ram-freeMB", fmtF(100+300*pseudo(now, host, uint64(20+i))),
					"Mds-Memory-Vm-Total-sizeMB", "1024",
					"Mds-Memory-Vm-freeMB", fmtF(500+400*pseudo(now, host, uint64(120+i))),
				)}
			},
		})
	}
	return out
}

// pseudo produces a deterministic value in [0,1) varying with time, host
// and stream — sensor noise without global RNG state.
func pseudo(now float64, host string, stream uint64) float64 {
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
