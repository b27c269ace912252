package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/cmif"
)

// layerDef declares one per-layer metric. Every traced run reports all
// of them; a layer a workload does not exercise reads 0 and the trace
// file's notes say why.
type layerDef struct{ name, unit string }

var perLayer = []layerDef{
	{"cmif.open_us_p50", "us"},
	{"cmif.blocks_us_p50", "us"},
	{"cmif.blocks_us_p99", "us"},
	{"cmif.submitedit_us_p50", "us"},
	{"cmif.submitedit_us_p99", "us"},
	{"cmif.visible_primary_us_p50", "us"},
	{"cmif.visible_replica_us_p50", "us"},
	{"cmif.goodput_mb_s", "MB/s"},
	{"transport.getdoc_us_p50", "us"},
	{"transport.getblocks_us_p50", "us"},
	{"transport.server_getdoc_us_mean", "us"},
	{"transport.server_getblks_us_mean", "us"},
	{"transport.server_getblk_us_mean", "us"},
	{"transport.server_getblkmanifest_us_mean", "us"},
	{"transport.server_submitedit_us_mean", "us"},
	{"transport.server_subscribe_us_mean", "us"},
	{"transport.wire_getdoc_us", "us"},
	{"transport.wire_getblks_us", "us"},
	{"transport.wire_getblk_us", "us"},
	{"transport.wire_submitedit_us", "us"},
	{"transport.round_trips_per_op", "count"},
	{"transport.blockcache_hit_ratio", "ratio"},
	{"transport.compressed_frame_ratio", "ratio"},
	{"transport.compress_saved_ratio", "ratio"},
	{"transport.dedupe_fetch_ratio", "ratio"},
	{"transport.chunkcache_hit_ratio", "ratio"},
	{"transport.fanout_us_p50", "us"},
	{"transport.delta_events_per_edit", "count"},
	{"transport.snapshot_events_per_edit", "count"},
	{"transport.busy_rejections", "count"},
	{"codec.decode_binary_us", "us"},
	{"codec.encode_binary_us", "us"},
	{"codec.compress_us_per_mb", "us/MiB"},
	{"codec.compress_ratio", "ratio"},
	{"media.getref_ns", "ns"},
	{"media.dedupe_saved_mb", "MiB"},
	{"chunker.split_us_per_mb", "us/MiB"},
	{"core.clone_us", "us"},
	{"sched.full_us_p50", "us"},
	{"sched.incremental_us_p50", "us"},
	{"sched.full_passes_per_edit", "count"},
	{"sched.incremental_passes_per_edit", "count"},
	{"edit.apply_us", "us"},
	{"durable.wal_append_us_p50", "us"},
	{"durable.wal_append_us_p99", "us"},
	{"durable.wal_bytes_per_edit", "B"},
	{"cluster.replicate_us_p50", "us"},
	{"cluster.replicated_batches_per_edit", "count"},
	{"edge.mem_hit_ratio", "ratio"},
	{"edge.disk_hit_ratio", "ratio"},
	{"edge.upstream_trips_per_op", "count"},
	{"edge.disk_get_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_latency_p50_frac", "ratio"},
	{"trace.overhead_ops_per_s_frac", "ratio"},
	{spanMetric("op"), "us"},
	{spanMetric("cmif.open"), "us"},
	{spanMetric("sched.schedule"), "us"},
	{spanMetric("cmif.blocks"), "us"},
	{spanMetric("cmif.block"), "us"},
	{spanMetric("cmif.submitedit"), "us"},
	{spanMetric("wait.visible"), "us"},
	{spanMetric("audit"), "us"},
}

// regDelta is the change in a metrics registry across the traced phase.
type regDelta struct{ before, after cmif.MetricsSnapshot }

func newRegDelta(before cmif.MetricsSnapshot, reg *cmif.Metrics) regDelta {
	return regDelta{before: before, after: reg.Snapshot()}
}

// counter is a counter's increase; key is name plus rendered labels.
func (d regDelta) counter(key string) float64 {
	return float64(d.after.Counters[key] - d.before.Counters[key])
}

// counterPrefix sums the increases of every counter whose key starts
// with prefix (a family across its labels).
func (d regDelta) counterPrefix(prefix string) float64 {
	var sum float64
	for key, v := range d.after.Counters {
		if strings.HasPrefix(key, prefix) {
			sum += float64(v - d.before.Counters[key])
		}
	}
	return sum
}

// histMeanUS is a histogram's mean observation over the phase, in
// microseconds; 0 when it observed nothing.
func (d regDelta) histMeanUS(key string) float64 {
	a, b := d.after.Histograms[key], d.before.Histograms[key]
	n := a.Count - b.Count
	if n <= 0 {
		return 0
	}
	return (a.Sum - b.Sum) / float64(n) * 1e6
}

// histSumUS is a histogram's total observed time over the phase, in
// microseconds.
func (d regDelta) histSumUS(key string) float64 {
	return (d.after.Histograms[key].Sum - d.before.Histograms[key].Sum) * 1e6
}

// histQuantileUS reads a histogram's cumulative quantile (the registry
// does not expose buckets, so this covers the run up to now).
func histQuantileUS(snap cmif.MetricsSnapshot, key string, q float64) float64 {
	h := snap.Histograms[key]
	switch q {
	case 0.50:
		return h.P50 * 1e6
	case 0.99:
		return h.P99 * 1e6
	}
	return 0
}

func reqKey(op string) string { return fmt.Sprintf("cmif_request_seconds{op=%q}", op) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladder times fn over inputs round-robin until it has run at least
// minIters times and for at least minDur, or maxIters times, and
// returns the per-call durations.
func ladder(minIters, maxIters int, minDur time.Duration, fn func(i int)) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for i := 0; i < maxIters; i++ {
		if i >= minIters && time.Since(start) >= minDur {
			break
		}
		t0 := time.Now()
		fn(i)
		out = append(out, time.Since(t0))
	}
	return out
}

func durSum(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

// sortedKeys returns m's keys in order, for deterministic input walks.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
