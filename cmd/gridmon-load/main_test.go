package main

import (
	"reflect"
	"testing"
	"time"

	gridmon "repro"
)

// ramp returns n sorted latencies 1ms, 2ms, ..., n ms.
func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"p50 of 100", ramp(100), 0.50, 50 * time.Millisecond},
		{"p99 of 100", ramp(100), 0.99, 99 * time.Millisecond},
		{"p50 of 4", ramp(4), 0.50, 2 * time.Millisecond},
		{"p99 of 10 is the maximum", ramp(10), 0.99, 10 * time.Millisecond},
		{"empty", nil, 0.99, 0},
		{"one element at p50", ramp(1), 0.50, time.Millisecond},
		{"one element at p99", ramp(1), 0.99, time.Millisecond},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestParseLevels(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"1,4,16", []int{1, 4, 16}},
		{" 2 , 8 ", []int{2, 8}},
		{"5", []int{5}},
		{"0", nil},
		{"1,0", nil},
		{"-3", nil},
		{"two", nil},
		{"1,,2", nil},
		{"", nil},
	} {
		got, err := parseLevels(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseLevels(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLevels(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseRole(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want gridmon.Role
	}{
		{"", ""},
		{"info", ""},
		{"Information Server", ""},
		{"dir", gridmon.RoleDirectoryServer},
		{"directory", gridmon.RoleDirectoryServer},
		{"DIR", gridmon.RoleDirectoryServer},
		{string(gridmon.RoleDirectoryServer), gridmon.RoleDirectoryServer},
		{"agg", gridmon.RoleAggregateServer},
		{"aggregate", gridmon.RoleAggregateServer},
		{string(gridmon.RoleAggregateServer), gridmon.RoleAggregateServer},
		// Anything else goes to the server unchanged, which rejects it.
		{"collector", "collector"},
	} {
		if got := parseRole(tc.in); got != tc.want {
			t.Errorf("parseRole(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestExitForErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		results []levelResult
		maxRate float64
		want    int
	}{
		{"clean", []levelResult{{Users: 1, Queries: 100}}, 0, 0},
		{"no queries", []levelResult{{Users: 1}}, 1, 1},
		{"no queries at one level", []levelResult{{Users: 1, Queries: 10}, {Users: 2}}, 1, 1},
		{"error rate above the bound", []levelResult{{Users: 1, Queries: 90, Errors: 10}}, 0.05, 1},
		{"error rate below the bound", []levelResult{{Users: 1, Queries: 99, Errors: 1}}, 0.05, 0},
		{"error rate at the bound", []levelResult{{Users: 1, Queries: 95, Errors: 5}}, 0.05, 0},
		{"any error with a zero bound", []levelResult{{Users: 1, Queries: 999, Errors: 1}}, 0, 1},
		{"sheds are not errors", []levelResult{{Users: 4, Queries: 10, Shed: 1000}}, 0, 0},
		{"only errors", []levelResult{{Users: 1, Errors: 3}}, 0.5, 1},
	} {
		if got := exitForErrors(tc.results, tc.maxRate); got != tc.want {
			t.Errorf("%s: exitForErrors = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestMergeStats(t *testing.T) {
	stats := []userStats{
		{latencies: []time.Duration{4 * time.Millisecond, time.Millisecond}, errors: 1, partials: 1, hits: 3, misses: 1},
		{latencies: []time.Duration{3 * time.Millisecond, 2 * time.Millisecond}, shedLats: []time.Duration{500 * time.Microsecond}, errors: 2},
	}
	got := mergeStats(2, stats, 2*time.Second)
	rate := 0.75
	want := levelResult{
		Users:        2,
		Queries:      4,
		Errors:       3,
		Shed:         1,
		Partials:     1,
		Throughput:   2,
		MeanMS:       2.5,
		P50MS:        2,
		P99MS:        4,
		ShedP99MS:    0.5,
		CacheHitRate: &rate,
	}
	if got.CacheHitRate == nil || *got.CacheHitRate != rate {
		t.Fatalf("CacheHitRate = %v, want %v", got.CacheHitRate, rate)
	}
	got.CacheHitRate = want.CacheHitRate
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mergeStats = %+v\nwant        %+v", got, want)
	}

	// With no cache, no response counts a hit or a miss: the rate is
	// absent, not zero.
	plain := mergeStats(1, []userStats{{latencies: []time.Duration{time.Millisecond}}}, time.Second)
	if plain.CacheHitRate != nil {
		t.Errorf("CacheHitRate without a cache = %v, want nil", *plain.CacheHitRate)
	}

	// A level that completed nothing reports zeros, not NaNs.
	empty := mergeStats(3, []userStats{{errors: 2}}, 0)
	if empty != (levelResult{Users: 3, Errors: 2}) {
		t.Errorf("empty level = %+v", empty)
	}
}
