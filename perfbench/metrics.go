package main

import (
	"math"
	"sort"
)

// metric describes one reported number. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); the
// workloads a per-layer metric applies to and the end-to-end metric it
// should move live only here, because BENCHMARK.json's keys are fixed. A
// per-layer name starts with its module.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// target is the end-to-end metric a change in a per-layer metric
	// should move; for simulated cycle counts, the simulated throughput
	// they set.
	target string
	// on lists the workloads whose path includes the layer. Elsewhere the
	// metric is reported as 0, the "no change" prediction.
	on []string
}

const (
	wlServeUnique = "serve-unique"
	wlFleetRepeat = "fleet-repeat"
	wlHostBatch   = "host-batch"
	wlWSESim      = "wse-sim"
)

var (
	allWorkloads = []string{wlServeUnique, wlFleetRepeat, wlHostBatch, wlWSESim}
	serving      = []string{wlServeUnique, wlFleetRepeat}
	fleetOnly    = []string{wlFleetRepeat}
	hostOnly     = []string{wlHostBatch}
	simOnly      = []string{wlWSESim}
)

// endToEnd is measured with tracing off. Every workload reports every
// metric, each in its own terms (see doc.go). Timings are normalized CPU
// times (speedref.go): on the shared 2-vCPU reference host the middle
// half of ten runs' wall-clock and even raw CPU timings spread by 20-30%
// of their median in busy periods, normalized ones by 2-11%; the bound
// keeps a margin over that. ratio moves only with the seed's data.
var endToEnd = []metric{
	{name: "compress_norm_cpu_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "decompress_norm_cpu_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "norm_gb_per_cpu_s", unit: "GB/cpu-s", better: "higher", bound: 0.25},
	{name: "ratio", unit: "x", better: "higher", bound: 0.20},
	{name: "peak_heap_mib", unit: "MiB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is measured by the traced run.
var perLayer = []metric{
	{name: "client.compress_self_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "client.decompress_self_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},

	{name: "cluster.self_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: fleetOnly},
	{name: "cluster.route_key_us", unit: "us", better: "lower", target: "norm_gb_per_cpu_s", on: allWorkloads},
	{name: "cluster.affinity_hit_ratio", unit: "ratio", better: "higher", target: "norm_gb_per_cpu_s", on: fleetOnly},
	{name: "cluster.backend_share_max", unit: "ratio", better: "lower", target: "norm_gb_per_cpu_s", on: fleetOnly},
	{name: "cluster.failovers", unit: "count", better: "lower", target: "norm_gb_per_cpu_s", on: fleetOnly},
	{name: "cluster.ring_rebuilds", unit: "count", better: "lower", target: "norm_gb_per_cpu_s", on: fleetOnly},

	{name: "server.compress.handler_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.compress.read_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.compress.cache_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.compress.codec_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.compress.write_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.compress.residual_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "server.decompress.handler_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.decompress.read_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.decompress.cache_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.decompress.codec_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.decompress.write_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.decompress.residual_ms", unit: "ms", better: "lower", target: "decompress_norm_cpu_ms", on: serving},
	{name: "server.rejected_429", unit: "count", better: "lower", target: "norm_gb_per_cpu_s", on: serving},

	{name: "chunkcache.hit_ratio", unit: "ratio", better: "higher", target: "compress_norm_cpu_ms", on: serving},
	{name: "chunkcache.evictions", unit: "count", better: "lower", target: "compress_norm_cpu_ms", on: serving},
	{name: "chunkcache.coalesced", unit: "count", better: "higher", target: "compress_norm_cpu_ms", on: serving},
	{name: "chunkcache.hash_ns_per_byte", unit: "ns/B", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},

	{name: "core.compress_ns_per_byte", unit: "ns/B", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},
	{name: "core.decompress_ns_per_byte", unit: "ns/B", better: "lower", target: "decompress_norm_cpu_ms", on: allWorkloads},
	{name: "core.compress64_ns_per_byte", unit: "ns/B", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},
	{name: "core.decompress64_ns_per_byte", unit: "ns/B", better: "lower", target: "decompress_norm_cpu_ms", on: allWorkloads},
	{name: "core.mean_width", unit: "bits", better: "lower", target: "ratio", on: allWorkloads},
	{name: "core.zero_blocks", unit: "count", better: "higher", target: "ratio", on: allWorkloads},
	{name: "core.verbatim_blocks", unit: "count", better: "lower", target: "ratio", on: allWorkloads},

	{name: "flenc.encode_ns_per_block", unit: "ns", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},
	{name: "flenc.decode_ns_per_block", unit: "ns", better: "lower", target: "decompress_norm_cpu_ms", on: allWorkloads},

	{name: "hostpool.speedup", unit: "x", better: "higher", target: "compress_wall_p50_ms (stamp only)", on: hostOnly},
	{name: "hostpool.peak_workers", unit: "count", better: "higher", target: "compress_wall_p50_ms (stamp only)", on: hostOnly},
	{name: "hostpool.imbalance_pct", unit: "%", better: "lower", target: "decompress_wall_p50_ms (stamp only)", on: hostOnly},

	{name: "stages.estimate_width_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},
	{name: "mapping.plan_ms", unit: "ms", better: "lower", target: "compress_norm_cpu_ms", on: allWorkloads},

	{name: "wse.run_s", unit: "s", better: "lower", target: "compress_norm_cpu_ms", on: simOnly},
	{name: "wse.events", unit: "count", better: "lower", target: "compress_norm_cpu_ms", on: simOnly},
	{name: "wse.events_per_s", unit: "1/s", better: "higher", target: "compress_norm_cpu_ms", on: simOnly},
	{name: "wse.shard_imbalance_pct", unit: "%", better: "lower", target: "compress_norm_cpu_ms", on: simOnly},
	{name: "wse.pool_peak_workers", unit: "count", better: "higher", target: "compress_norm_cpu_ms", on: simOnly},
	{name: "wse.cycles_compute", unit: "cycles", better: "lower", target: "wse.compress_gbps", on: simOnly},
	{name: "wse.cycles_relay", unit: "cycles", better: "lower", target: "wse.compress_gbps", on: simOnly},
	{name: "wse.cycles_queue_wait", unit: "cycles", better: "lower", target: "wse.compress_gbps", on: simOnly},
	{name: "wse.cycles_fabric_stall", unit: "cycles", better: "lower", target: "wse.compress_gbps", on: simOnly},
	{name: "wse.cycles_idle", unit: "cycles", better: "lower", target: "wse.compress_gbps", on: simOnly},
	{name: "wse.compress_gbps", unit: "GB/s", better: "higher", target: "none (simulated)", on: simOnly},
	{name: "wse.decompress_gbps", unit: "GB/s", better: "higher", target: "none (simulated)", on: simOnly},

	{name: "telemetry.trace_overhead_pct", unit: "%", better: "lower", target: "none", on: allWorkloads},

	{name: "proc.alloc_mib_per_op", unit: "MiB", better: "lower", target: "norm_gb_per_cpu_s", on: allWorkloads},
	{name: "proc.gc_cycles", unit: "count", better: "lower", target: "norm_gb_per_cpu_s", on: allWorkloads},
}

// applies reports whether m's layer is on workload w's path.
func (m metric) applies(w string) bool {
	for _, x := range m.on {
		if x == w {
			return true
		}
	}
	return false
}

// tail is the benchmark's percentile rule: the nearest-rank percentile p
// of the samples together with how many samples lie strictly beyond it.
// A tail is only trustworthy with at least minBeyond samples past it.
type tail struct {
	value  float64
	n      int
	beyond int
}

const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample with at least p% of samples at or below it.
func percentile(samples []float64, p float64) tail {
	if len(samples) == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return tail{value: s[rank-1], n: len(s), beyond: len(s) - rank}
}

// enough reports whether the tail meets the ten-samples-beyond rule.
func (t tail) enough() bool { return t.beyond >= minBeyond }

func median(samples []float64) float64 { return percentile(samples, 50).value }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}
