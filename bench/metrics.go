package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric of the ledger. BENCHMARK.json repeats these
// declarations (bench_test.go keeps the two in step) and adds the regression
// bound of every end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a caller of the system feels. Every workload
// reports every one of them from the untraced window, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"mem_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, named <module>.<what>. Every
// workload prints every one from the traced run; a layer that does no work on
// a workload reports 0 there (README has the matrix).
var perLayer = []metricDef{
	{"esql.parse_us", "us", "lower"},

	{"warehouse.route_first_us", "us", "lower"},
	{"warehouse.route_repeat_us", "us", "lower"},
	{"warehouse.views_per_route", "count", "lower"},
	{"route.share_extent", "ratio", "higher"},
	{"route.share_residual", "ratio", "higher"},
	{"route.share_base", "ratio", "lower"},
	{"route.extent_p50_us", "us", "lower"},
	{"route.residual_p50_us", "us", "lower"},
	{"route.base_p50_us", "us", "lower"},

	{"plan.execute_us", "us", "lower"},
	{"plan.rows_out_per_op", "count", "lower"},
	{"exec.checksum_us", "us", "lower"},

	{"eved.gap_us", "us", "lower"},
	{"eved.resp_bytes_per_op", "count", "lower"},
	{"eved.cpu_ms_per_kop", "ms", "lower"},
	{"eved.rss_mb", "MiB", "lower"},

	{"client.read_p50_us", "us", "lower"},
	{"client.read_p99_us", "us", "lower"},
	{"client.read_samples", "count", "higher"},
	{"client.write_p50_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.write_samples", "count", "higher"},
	{"client.change_p50_us", "us", "lower"},
	{"client.change_p99_us", "us", "lower"},
	{"client.change_samples", "count", "higher"},
	{"client.read_after_write_p50_us", "us", "lower"},
	{"client.read_steady_p50_us", "us", "lower"},

	{"maintain.collapse_us", "us", "lower"},
	{"maintain.land_us", "us", "lower"},
	{"maintain.view_us", "us", "lower"},
	{"maintain.views_per_batch", "count", "lower"},
	{"maintain.msgs_per_batch", "count", "lower"},
	{"maintain.bytes_per_batch", "count", "lower"},
	{"maintain.io_per_batch", "count", "lower"},

	{"warehouse.publish_us", "us", "lower"},
	{"warehouse.snapshot_us", "us", "lower"},
	{"warehouse.sync_us", "us", "lower"},
	{"warehouse.syncs_per_history", "count", "lower"},
	{"warehouse.adopt_us", "us", "lower"},
	{"warehouse.adopts_per_history", "count", "lower"},

	{"evolve.skip_p50_us", "us", "lower"},
	{"evolve.skipped_share", "ratio", "higher"},
	{"evolve.searches_per_history", "count", "lower"},
	{"evolve.shared_per_history", "count", "higher"},
	{"evolve.groups_per_history", "count", "lower"},
	{"evolve.batch_replay_ms", "ms", "lower"},
	{"evolve.other_us", "us", "lower"},
	{"core.candidates_per_search", "count", "lower"},
	{"core.qc_sum_milli", "count", "higher"},
	{"evolve.survivors", "count", "higher"},
	{"evolve.deceased_per_history", "count", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
	{"trace.stage_sum_share", "ratio", "higher"},
	{"harness.outside_share", "ratio", "lower"},
	{"harness.drift_rows", "count", "lower"},
	{"harness.failed_share", "ratio", "lower"},
}

// countMetrics are the per-layer metrics computed from a fixed operation
// prefix (or one full history), so they repeat exactly for a fixed seed.
var countMetrics = map[string]bool{
	"warehouse.views_per_route":    true,
	"route.share_extent":           true,
	"route.share_residual":         true,
	"route.share_base":             true,
	"plan.rows_out_per_op":         true,
	"eved.resp_bytes_per_op":       true,
	"maintain.views_per_batch":     true,
	"maintain.msgs_per_batch":      true,
	"maintain.bytes_per_batch":     true,
	"maintain.io_per_batch":        true,
	"warehouse.syncs_per_history":  true,
	"warehouse.adopts_per_history": true,
	"evolve.skipped_share":         true,
	"evolve.searches_per_history":  true,
	"evolve.shared_per_history":    true,
	"evolve.groups_per_history":    true,
	"core.candidates_per_search":   true,
	"core.qc_sum_milli":            true,
	"evolve.survivors":             true,
	"evolve.deceased_per_history":  true,
	"harness.drift_rows":           true,
	"harness.failed_share":         true,
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedCopy returns the durations in ascending order.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the p-quantile (0..1) of sorted durations, 0 when empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// p50us is the median in microseconds.
func p50us(ds []time.Duration) float64 { return micros(percentile(sortedCopy(ds), 0.50)) }

// meanUs is the arithmetic mean in microseconds, 0 when empty.
func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return micros(sum(ds)) / float64(len(ds))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quartiles returns the first quartile, median and third quartile of values
// the way Python's statistics.quantiles(values, n=4) does (exclusive method),
// so the spreads `-runs` and `compare` print are the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}
