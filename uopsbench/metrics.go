package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"variants_per_s", "1/s", "higher"},
	{"restart_s", "s", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"full_p50_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"gt_match_ratio", "ratio", "higher"},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"pipesim.runs", "count", "lower"},
		{"pipesim.sim_cycles", "count", "lower"},
		{"pipesim.busy_s", "s", "lower"},
		{"pipesim.sim_cycles_per_s", "1/s", "higher"},
		{"measure.runs_per_variant", "ratio", "lower"},
		{"measure.seq_reuse_ratio", "ratio", "higher"},
		{"measure.seq_checkouts", "count", "lower"},
		{"measure.pool_reuse_ratio", "ratio", "higher"},
		{"measure.pool_checkouts", "count", "lower"},
		{"core.blocking_s", "s", "lower"},
		{"core.portusage_s", "s", "lower"},
		{"core.latency_s", "s", "lower"},
		{"core.throughput_s", "s", "lower"},
		{"core.portusage_runs", "count", "lower"},
		{"core.latency_runs", "count", "lower"},
		{"core.throughput_runs", "count", "lower"},
		{"core.sample_variants", "count", "higher"},
		{"core.gt_mismatches", "count", "lower"},
		{"core.gt_compared", "count", "higher"},
		{"engine.characterize_s", "s", "lower"},
		{"engine.variant_hit_ratio", "ratio", "higher"},
		{"engine.variant_lookups", "count", "higher"},
		{"engine.result_hit_ratio", "ratio", "higher"},
		{"engine.result_lookups", "count", "higher"},
		{"engine.variants_measured", "count", "lower"},
		{"store.open_s", "s", "lower"},
		{"store.io_s", "s", "lower"},
		{"store.sync_s", "s", "lower"},
		{"store.syncs", "count", "lower"},
		{"store.write_ops", "count", "lower"},
		{"store.write_bytes", "B", "lower"},
		{"store.read_ops", "count", "lower"},
		{"store.read_bytes", "B", "lower"},
		{"store.compactions", "count", "lower"},
		{"xmlout.render_s", "s", "lower"},
		{"xmlout.bytes", "B", "lower"},
		{"service.requests", "count", "higher"},
	}
	for k := reqKind(0); k < numKinds; k++ {
		specs = append(specs,
			metricSpec{"service.handler_p50_ms." + k.String(), "ms", "lower"},
			metricSpec{"service.handler_p99_ms." + k.String(), "ms", "lower"})
	}
	return append(specs,
		metricSpec{"service.transport_p50_ms", "ms", "lower"},
		metricSpec{"runtime.alloc_mb", "MB", "lower"},
		metricSpec{"runtime.gc_cpu_fraction", "ratio", "lower"},
		metricSpec{"trace_overhead", "ratio", "lower"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
