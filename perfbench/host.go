package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ceresz"
	"ceresz/internal/hostpool"
	"ceresz/internal/quant"
)

// hostBound is the checkpoint's error bound, the paper's default.
var hostBound = ceresz.REL(1e-3)

func widen(f []float32) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		out[i] = float64(v)
	}
	return out
}

// stripes is how many pieces each field is written in. Like a chunked
// checkpoint format, the benchmark writes and reads the checkpoint one
// stripe of every field at a time; a stripe is one operation, so a run
// yields enough operations for its p95, each holding every field kind.
const stripes = 8

// part is one stripe of one field with its bound and reusable buffers.
// Exactly one of f32 and f64 is set.
type part struct {
	f32   []float32
	f64   []float64
	eps   float64
	comp  []byte
	rec32 []float32
	rec64 []float64
	stats ceresz.Stats
}

func (p *part) rawBytes() int {
	if p.f64 != nil {
		return 8 * len(p.f64)
	}
	return 4 * len(p.f32)
}

// call times one library call, as a core-layer span when traced.
func (rc *runCtx) call(traced bool, name string, fn func() error) (opTime, error) {
	t, err := rc.speed.timeOp(fn)
	if traced {
		rc.spans.add(&span{layer: "core", name: name, start: t.start, end: t.start.Add(t.wall)})
	}
	return t, err
}

// write compresses one stripe of every field.
func (rc *runCtx) write(stripe []*part, opts ceresz.Options, traced bool) (opTime, error) {
	return rc.call(traced, "write stripe", func() (err error) {
		for _, p := range stripe {
			if p.f64 != nil {
				p.comp, err = ceresz.Compress64Into(p.comp[:0], p.f64, ceresz.ABS(p.eps), opts, &p.stats)
			} else {
				p.comp, err = ceresz.CompressInto(p.comp[:0], p.f32, ceresz.ABS(p.eps), opts, &p.stats)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// read decompresses one stripe of every field and checks every element
// against its field's ε.
func (rc *runCtx) read(stripe []*part, opts ceresz.Options, traced bool) (opTime, error) {
	d, err := rc.call(traced, "read stripe", func() (err error) {
		for _, p := range stripe {
			if p.f64 != nil {
				p.rec64, err = ceresz.Decompress64With(p.rec64[:0], p.comp, opts)
			} else {
				p.rec32, err = ceresz.DecompressWith(p.rec32[:0], p.comp, opts)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return d, err
	}
	for i, p := range stripe {
		if p.f64 != nil {
			err = withinEps(p.f64, p.rec64, p.eps)
		} else {
			err = withinEps(p.f32, p.rec32, p.eps)
		}
		if err != nil {
			return d, fmt.Errorf("%w: field %d: %v", errCheck, i, err)
		}
	}
	return d, nil
}

// split cuts every field into stripes under the field's REL bound,
// resolved over the whole field as a one-piece write would.
func split(f32 [][]float32, f64 [][]float64) ([][]*part, error) {
	out := make([][]*part, stripes)
	add := func(n int, eps float64, mk func(lo, hi int) *part) {
		for s := 0; s < stripes; s++ {
			p := mk(s*n/stripes, (s+1)*n/stripes)
			p.eps = eps
			out[s] = append(out[s], p)
		}
	}
	for _, f := range f32 {
		eps, err := hostBound.Resolve(quant.Range(f))
		if err != nil {
			return nil, err
		}
		add(len(f), eps, func(lo, hi int) *part { return &part{f32: f[lo:hi]} })
	}
	for _, f := range f64 {
		eps, err := hostBound.Resolve(quant.Range64(f))
		if err != nil {
			return nil, err
		}
		add(len(f), eps, func(lo, hi int) *part { return &part{f64: f[lo:hi]} })
	}
	return out, nil
}

func runHostBatch(rc *runCtx) error {
	fields, err := nyxAll(rc.seed)
	if err != nil {
		return err
	}
	cp, err := split(fields, [][]float64{widen(fields[0]), widen(fields[1])})
	if err != nil {
		return err
	}
	opts := ceresz.Options{Workers: runtime.GOMAXPROCS(0)}

	// Set-up is a cold round trip of the first field: output buffers are
	// allocated and the shared host pool is running afterwards.
	var setups []opTime
	for i := 0; i < 7; i++ {
		t, err := rc.speed.timeOp(func() error {
			var st ceresz.Stats
			c, err := ceresz.CompressInto(nil, fields[0], hostBound, opts, &st)
			if err != nil {
				return err
			}
			_, err = ceresz.DecompressWith(nil, c, opts)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, t)
	}

	var raw, comp float64
	for _, stripe := range cp {
		for _, p := range stripe {
			raw += float64(p.rawBytes())
		}
	}
	var cops, dops []opTime
	var tracedRT, plainRT []float64
	var ref [][]byte
	var refStats []ceresz.Stats
	ph := startPhase()
	deadline := ph.start.Add(rc.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		traced := rc.trace && i%2 == 1
		var c, d []opTime
		var rt time.Duration
		for _, stripe := range cp {
			t, err := rc.write(stripe, opts, traced)
			rc.attempted++
			if err != nil {
				rc.failed++
				ph.stop()
				return err
			}
			c, rt = append(c, t), rt+t.wall
		}
		for _, stripe := range cp {
			t, err := rc.read(stripe, opts, traced)
			rc.attempted++
			if err != nil {
				rc.failed++
				ph.stop()
				return err
			}
			d, rt = append(d, t), rt+t.wall
		}
		var streams [][]byte
		var stats []ceresz.Stats
		for _, stripe := range cp {
			for _, p := range stripe {
				streams, stats = append(streams, p.comp), append(stats, p.stats)
			}
		}
		if ref == nil {
			for _, st := range streams {
				ref = append(ref, append([]byte(nil), st...))
				comp += float64(len(st))
			}
			refStats = stats
		} else {
			for j := range ref {
				if !bytes.Equal(ref[j], streams[j]) || refStats[j] != stats[j] {
					rc.failed++
					ph.stop()
					return fmt.Errorf("%w: stream %d changed between rounds", errCheck, j)
				}
			}
		}
		if traced {
			tracedRT = append(tracedRT, ms(rt))
			continue
		}
		plainRT = append(plainRT, ms(rt))
		cops, dops = append(cops, c...), append(dops, d...)
	}
	ph.stop()

	if err := rc.putOps(setups, cops, dops, float64(len(plainRT))*raw); err != nil {
		return err
	}
	rc.put("ratio", raw/comp)
	rc.put("peak_heap_mib", ph.peakHeapMiB)
	rc.phaseProc(ph, float64(len(plainRT)+len(tracedRT)))
	for i, f := range fields {
		rc.refs = append(rc.refs, refInput{data: f, eps: cp[0][i].eps})
	}
	if !rc.trace {
		return nil
	}
	rc.put("telemetry.trace_overhead_pct", (mean(tracedRT)/mean(plainRT)-1)*100)
	return rc.hostpoolProbe(fields[0])
}

// hostpoolProbe measures the pool on one field: the round-trip time with
// one worker over the time with GOMAXPROCS workers, and the pool's own
// occupancy gauges after a parallel call.
func (rc *runCtx) hostpoolProbe(f []float32) error {
	timeRT := func(workers int) (float64, error) {
		var best []float64
		var c []byte
		var r []float32
		var st ceresz.Stats
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			var err error
			if c, err = ceresz.CompressInto(c[:0], f, hostBound, ceresz.Options{Workers: workers}, &st); err != nil {
				return 0, err
			}
			if r, err = ceresz.DecompressWith(r[:0], c, ceresz.Options{Workers: workers}); err != nil {
				return 0, err
			}
			best = append(best, time.Since(t0).Seconds())
		}
		return median(best), nil
	}
	// The pool needs every CPU to show its speed-up: the pin is lifted
	// for this probe, which runs after the measured phase.
	if err := rc.pin.release(); err != nil {
		return err
	}
	defer rc.pin.repin()
	one, err := timeRT(1)
	if err != nil {
		return err
	}
	all, err := timeRT(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	// The pool times its shards only while the default registry is on,
	// so one more parallel compress runs instrumented, after the timing.
	ceresz.EnableTelemetry()
	defer ceresz.DisableTelemetry()
	var st ceresz.Stats
	if _, err := ceresz.CompressInto(nil, f, hostBound, ceresz.Options{Workers: runtime.GOMAXPROCS(0)}, &st); err != nil {
		return err
	}
	rc.put("hostpool.speedup", one/all)
	rc.put("hostpool.peak_workers", float64(hostpool.Peak()))
	rc.put("hostpool.imbalance_pct", float64(hostpool.LastImbalance()))
	return nil
}
