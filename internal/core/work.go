package core

import (
	"repro/internal/hawkeye"
	"repro/internal/mds"
	"repro/internal/rgma"
)

// MDSWork converts MDS query statistics to the uniform Work measure.
//
//gridmon:nolint workacct ProvidersInvoked is the unweighted companion of ProviderForkWeight; the weighted count is what CollectorInvocations charges
func MDSWork(st mds.QueryStats) Work {
	return Work{
		CollectorInvocations: st.ProviderForkWeight,
		RecordsVisited:       st.EntriesVisited,
		RecordsReturned:      st.EntriesReturned,
		Subqueries:           0, // GRIS/GIIS fan-out is charged per entry, not per sub-query
		ThreadSpawns:         0, // MDS forks providers; the fork weight is CollectorInvocations
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}

// RGMAWork converts R-GMA query statistics to the uniform Work measure.
func RGMAWork(st rgma.QueryStats) Work {
	return Work{
		CollectorInvocations: 0, // producers materialize rows lazily; no collector forks
		RecordsVisited:       st.RowsScanned,
		RecordsReturned:      st.RowsReturned,
		Subqueries:           st.ProducersContacted + st.RegistryLookups,
		ThreadSpawns:         st.ThreadSpawns,
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}

// HawkeyeWork converts Hawkeye query statistics to the uniform Work measure.
//
//gridmon:nolint workacct ModulesCollected is the unweighted companion of ModuleExecWeight; the weighted count is what CollectorInvocations charges
func HawkeyeWork(st hawkeye.QueryStats) Work {
	return Work{
		CollectorInvocations: st.ModuleExecWeight,
		RecordsVisited:       st.AdsScanned,
		RecordsReturned:      st.AdsReturned,
		Subqueries:           0, // the Manager answers from its own ad table; no fan-out
		ThreadSpawns:         0, // agent module runs are charged via CollectorInvocations
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}
