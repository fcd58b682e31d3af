// Command perfbench is the repository's benchmark. It runs one seeded
// workload in-process against the real library, serving and simulator
// code, checks every output, and prints each end-to-end metric by name
// and unit; with --trace 1 it runs the workload with spans recorded at
// each layer boundary and prints the per-layer metrics instead. Run it
// from the repository root:
//
//	bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 16 --trace 0
//
// run.sh builds this module (its go.mod points at the repository root)
// and keeps the build, the Go build cache and the result files under
// $CARGO_TARGET_DIR, default .bench_build. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the line before it is the environment stamp (nproc,
// GOMAXPROCS, the CPU the run is pinned to, CPU model, Go version,
// revision or source digest, cache and worker settings, the host's CPU
// steal and the speed probe's median during the measured phase, and the
// wall-clock latencies). Any failed operation or check makes the command
// exit 1. Unit tests for the benchmark's own arithmetic: cd perfbench && go
// test .
//
// # Workloads
//
// Every workload runs at GOMAXPROCS = nproc with the whole process pinned
// to one CPU (see Timing below). The serving workloads are closed loops of
// one client (a simulation rank writing a checkpoint waits for each
// reply) on loopback listeners, through client/ with a keep-alive
// connection; each iteration compresses a 4 MiB body and decompresses the
// returned stream. Neither builds a queue, so admission control and
// tenant QoS are not measured.
//
//   - serve-unique: one cereszd with its chunk cache on. Every body is a
//     1 Mi-element window of a seeded NYX velocity field whose 64 Ki
//     chunks carry unique stamps in their leading elements, so neither
//     a raw chunk nor its compressed frame repeats: the codec does the
//     work and the cache pays only hashing and eviction.
//   - fleet-repeat: cereszproxy over two cereszd backends. 90% of
//     requests (exactly one in every ten is unique, at a seeded position)
//     resend one of a 16-body hot set loaded during set-up, whose routing
//     digests reach both backends.
//     The proxy hop, routing-key hashing and cache hits dominate.
//   - host-batch: the library alone. A checkpoint of the six NYX medium
//     fields (2 Mi elements each) plus the first two widened to float64,
//     compressed and decompressed with REL(1e-3) (resolved per field) and
//     Workers = nproc, in eight stripes per field as chunked checkpoint
//     formats write them: the only workload on the hostpool and float64
//     paths.
//   - wse-sim: SimulateCompress and SimulateDecompress of one NYX medium
//     field on a 64×8 mesh with pipeline length 2 (row data parallelism,
//     pipelined stage groups and relay at once): the event engine and
//     Algorithm 1 mapping, no serving layer.
//
// The NYX fields are generated from the seed; so are window offsets,
// stamps, the hot set and the hot/unique sequence.
//
// # Timing
//
// Wall-clock time does not repeat on the shared 2-vCPU reference host:
// each vCPU switches, independently and every half second or so, between
// a fast state and one where the same instructions take up to 1.9 times
// longer, and the hypervisor's steal accounting does not see it. Timings
// of one seed moved 30-40% between runs. So every timing metric is a
// normalized CPU time: the process CPU time spent during the operation
// (all threads: benchmark client, proxy, servers, codec, GC), divided by
// the slowdown a fixed probe kernel (speedref.go) measured on the same
// CPU over the operation's interval. The probe runs every 10 ms on its
// own thread, and its CPU time is subtracted. Pinning the process to one
// CPU makes the probe see the CPU the operation ran on. Normalized values
// are the time at the fast state's speed; parallel speed-up does not
// lower them, so hostpool's speed-up is a per-layer metric only.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, each in its own terms.
// An operation is one client call (serving), one write or read of a
// stripe of all eight fields (host-batch), or one simulate call
// (wse-sim).
//
//   - compress_norm_cpu_ms, decompress_norm_cpu_ms: the median normalized
//     CPU time of an operation.
//   - norm_gb_per_cpu_s: raw bytes round-tripped per normalized
//     CPU-second over all untraced operations: a mean, so GC and other
//     costs that land on a few operations count.
//   - ratio: raw bytes over compressed stream bytes of the data sent. It
//     is exact for host-batch and wse-sim.
//   - peak_heap_mib: the largest live-plus-unswept heap sampled during
//     the measured phase (benchmark and program share the process).
//   - setup_s: median normalized CPU time of several set-ups in the run:
//     starting the serving stack until ready plus its warm-up (serving),
//     a cold round trip of one field with fresh buffers (host-batch), the
//     width estimate, both plans and meshes (wse-sim).
//
// The environment stamp carries what a caller waits, in wall-clock time:
// compress_wall_p50_ms and compress_wall_p95_ms (nearest rank, with the
// sample count and how many samples lie beyond it; wse-sim's ~15 calls
// per run leave fewer than ten), the same for decompress, and wall_gbps.
// They are not gated because they do not repeat on the reference host.
//
// Failed or refused operations are the result's failed count over
// attempted; client/ retries are off, so a 429 counts as a failure.
//
// # Per-layer metrics
//
// metrics.go lists every per-layer metric with its module, the workloads
// whose path it is on, and the end-to-end metric it should move. Off the
// path a metric reads 0, the "no change" prediction. The traced run times
// layers from outside the program: client/ calls, wrapped proxy and
// backend handlers, the backends' Server-Timing stages, run deltas of
// each component's private telemetry.Registry, and isolated single-
// threaded probes on the workload's own inputs after the measured phase.
// Traced and untraced operations alternate, and
// telemetry.trace_overhead_pct compares their mean round trips. The run
// writes a Perfetto-loadable trace of its spans and a reconciliation
// table (client ⊇ proxy ⊇ server ⊇ stages with each level's residual)
// next to its result.
//
// # Correctness gates
//
// Every reconstruction is within ε (serving: ABS ε = 1e-3 of the source
// field's range); the first warm-up stream of a serving run equals
// ceresz.StreamWriter output; resent hot bodies return identical
// streams; simulated streams and reconstructions equal the host codec's
// bit for bit; streams, block statistics, simulated cycles and events
// repeat exactly across rounds.
package main
