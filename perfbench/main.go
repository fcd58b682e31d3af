package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{wlServeUnique, "1 client, one cereszd, never-seen 4 MiB bodies: codec and cache-miss hashing dominate",
		func(rc *runCtx) error { return runServing(rc, servingSpec{backends: 1}) }},
	{wlFleetRepeat, "1 client, cereszproxy over 2 cereszd, 90% resent hot bodies: proxy hop and cache hits dominate",
		func(rc *runCtx) error { return runServing(rc, servingSpec{backends: 2, proxy: true, hotShare: 0.9}) }},
	{wlHostBatch, "library checkpoint of six NYX fields plus two widened: the only hostpool and float64 path",
		runHostBatch},
	{wlWSESim, "simulated CS-2 mesh 64x8, pipeline 2: event engine and Algorithm 1 mapping, no serving",
		runWSESim},
}

// runCtx carries one run's settings and collects its results.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    *spanLog
	pin      *pinning
	speed    *speedProbe

	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []error // failed correctness checks
	notes     []string
	env       map[string]any

	// refs are the workload's reference inputs for the isolated layer
	// probes and the exact block statistics.
	refs []refInput
}

func (rc *runCtx) put(name string, v float64) { rc.metrics[name] = v }

// putOps records the timing metrics of a run, all normalized CPU times
// (speedref.go): setup_s, the median of the run's set-ups; the median
// compress and decompress of its untraced operations; and the raw bytes
// round-tripped per normalized CPU-second spent in them (a mean, so GC
// and other costs that land on few operations count). rawBytes is the
// raw size of every round trip together. The environment stamp gets the
// raw CPU medians and the wall-clock latencies a caller waits: their
// median, nearest-rank p95 and how many samples lie beyond it, and raw
// bytes per second of wall time.
func (rc *runCtx) putOps(setups, comp, decomp []opTime, rawBytes float64) error {
	var setup []float64
	for _, o := range setups {
		n, err := rc.speed.norm(o)
		if err != nil {
			return err
		}
		setup = append(setup, n.Seconds())
	}
	rc.put("setup_s", median(setup))
	var normSum, wallSum time.Duration
	for _, dir := range []struct {
		name string
		ops  []opTime
	}{{"compress", comp}, {"decompress", decomp}} {
		var norm, cpu, wall []float64
		for _, o := range dir.ops {
			n, err := rc.speed.norm(o)
			if err != nil {
				return err
			}
			norm, cpu, wall = append(norm, ms(n)), append(cpu, ms(o.cpu)), append(wall, ms(o.wall))
			normSum, wallSum = normSum+n, wallSum+o.wall
		}
		rc.put(dir.name+"_norm_cpu_ms", median(norm))
		p95 := percentile(wall, 95)
		rc.env[dir.name+"_cpu_ms"] = median(cpu)
		rc.env[dir.name+"_wall_p50_ms"] = median(wall)
		rc.env[dir.name+"_wall_p95_ms"] = p95.value
		rc.env[dir.name+"_samples"] = p95.n
		rc.env[dir.name+"_p95_beyond"] = p95.beyond
		if !p95.enough() {
			rc.note(fmt.Sprintf("%s_wall_p95_ms rests on %d samples beyond it (rule: %d)", dir.name, p95.beyond, minBeyond))
		}
	}
	rc.put("norm_gb_per_cpu_s", rawBytes/normSum.Seconds()/1e9)
	rc.env["wall_gbps"] = rawBytes / wallSum.Seconds() / 1e9
	return nil
}

// fail records a failed correctness check.
func (rc *runCtx) fail(err error) { rc.checks = append(rc.checks, err) }

func (rc *runCtx) note(s string) { rc.notes = append(rc.notes, s) }

// phaseProc records the runtime's share of a measured phase per round
// trip (a compress and its decompress; host-batch: the whole checkpoint).
func (rc *runCtx) phaseProc(ph *phase, ops float64) {
	rc.put("proc.alloc_mib_per_op", ph.allocBytes/ops/(1<<20))
	rc.put("proc.gc_cycles", ph.gcCycles)
	rc.env["host_cpu_steal_pct"] = ph.stealPct
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 16, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fl.String("out", "", "directory for the result, trace and ledger files (\"\" = none)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(allWorkloads, ","))
		return 2
	}
	// Pinned before anything else runs, so every thread starts on the CPU.
	pin, err := pinCPU()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: pin to one CPU: %v\n", err)
		return 1
	}
	rc := &runCtx{
		pin:      pin,
		speed:    startSpeedProbe(),
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]float64{},
		env:      environment(wl.name, *seed),
	}
	defer rc.speed.stop()
	rc.env["pinned_cpu"] = pin.cpu
	if rc.trace {
		rc.spans = newSpanLog()
	}
	if err := wl.run(rc); err != nil {
		if !errors.Is(err, errCheck) {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		rc.fail(err)
		rc.failed = max(rc.failed, 1)
		rc.attempted = max(rc.attempted, rc.failed)
	}
	rc.env["speed_probe_p50_ms"], rc.env["speed_probes"] = rc.speed.stats()
	if rc.trace && len(rc.checks) == 0 {
		if err := rc.isolated(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: isolated probes: %v\n", wl.name, err)
			return 1
		}
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	res := result{Correct: len(rc.checks) == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := rc.metrics[m.name]
		switch {
		case ok:
		case !res.Correct:
			continue
		case rc.trace && !m.applies(wl.name):
			v = 0 // layer not on this workload's path
		default:
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", wl.name, m.name)
			return 1
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	for _, err := range rc.checks {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL: %v\n", wl.name, err)
	}
	if err := rc.report(stdout, res, want, *out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the metric table, the environment stamp and the result
// line, and writes them (plus the traced run's files) under dir.
func (rc *runCtx) report(w io.Writer, res result, want []metric, dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  trace %v  fail_ratio %.4f (%d of %d)\n",
		rc.workload, rc.seed, rc.trace, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, m := range want {
		if v, ok := res.Metrics[m.name]; ok {
			extra := ""
			if m.target != "" {
				extra = "  -> " + m.target
				if !m.applies(rc.workload) {
					extra += " (not on this workload's path)"
				}
			}
			fmt.Fprintf(&b, "  %-32s %16.6g %-6s%s\n", m.name, v.Value, m.unit, extra)
		}
	}
	for _, n := range rc.notes {
		fmt.Fprintln(&b, n)
	}
	envLine, err := json.Marshal(map[string]any{"env": rc.env})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	text := b.String() + string(envLine) + "\n" + string(resLine) + "\n"
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, btoi(rc.trace)))
		if err := os.WriteFile(base+".txt", []byte(text), 0o644); err != nil {
			return err
		}
		if rc.spans != nil {
			if err := rc.spans.writeChromeTrace(base + ".perfetto.json"); err != nil {
				return err
			}
		}
	}
	_, err = io.WriteString(w, text)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment is the stamp every result carries: the host, the toolchain,
// the code under test and the deployment settings.
func environment(wl string, seed int64) map[string]any {
	env := map[string]any{
		"workload":      wl,
		"seed":          seed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"revision":      "unknown",
		"source_sha256": sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["revision"] = s.Value
			case "vcs.modified":
				env["revision_modified"] = s.Value
			}
		}
	}
	switch wl {
	case wlServeUnique, wlFleetRepeat:
		env["clients"] = clientCount
		env["cache_bytes_per_backend"] = cacheBytes
		env["server_workers"] = runtime.GOMAXPROCS(0)
		env["server_host_workers"] = 1
		env["chunk_elems"] = chunkElems
	case wlHostBatch:
		env["host_workers"] = runtime.GOMAXPROCS(0)
	case wlWSESim:
		env["mesh"] = fmt.Sprintf("%dx%d", simRows, simCols)
		env["pipeline_len"] = simPipeline
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (hidden
// directories skipped), identifying the code under test where no
// version-control revision is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
