package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"ceresz"
	"ceresz/internal/core"
	"ceresz/internal/mapping"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// The simulated mesh: 64 rows of data parallelism, 8 columns holding
// four 2-PE pipelines per row, so blocks relay past busy heads — all
// three of the paper's strategies at once.
const (
	simRows, simCols, simPipeline = 64, 8, 2
	simField                      = "velocity_x"
)

var simMesh = ceresz.MeshConfig{Rows: simRows, Cols: simCols, PipelineLen: simPipeline}

// simCounts are the simulator's exact outputs for one round trip; they
// must repeat on every round.
type simCounts struct {
	cycles, events                          int64
	compute, relay, queueWait, fabric, idle int64
	compBytes                               int
}

func countsOf(c, d *ceresz.SimResult) simCounts {
	k := func(name string) int64 { return c.Telemetry.Counters[name] + d.Telemetry.Counters[name] }
	return simCounts{
		cycles: c.Cycles + d.Cycles, events: k("sim.events"),
		compute: k("sim.cycles.compute"), relay: k("sim.cycles.relay"),
		queueWait: k("sim.cycles.queue_wait"), fabric: k("sim.cycles.fabric_stall"),
		idle: k("sim.cycles.idle"), compBytes: len(c.Bytes),
	}
}

// planOnce is the simulator's set-up for one field: the sampled width
// estimate (Algorithm 1's input) and both directions' plans.
func planOnce(f []float32, eps float64, width uint) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	if _, err := stages.EstimateWidth(f, eps, core.DefaultBlockLen, 20); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	cc, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: int(width)})
	if err != nil {
		return 0, 0, err
	}
	pc := mapping.PlanConfig{Mesh: wse.Config{Rows: simRows, Cols: simCols}, PipelineLen: simPipeline}
	if _, err := mapping.NewPlan(cc, pc); err != nil {
		return 0, 0, err
	}
	dc, err := stages.NewDecompressChain(stages.Config{Eps: eps, EstWidth: 8})
	if err != nil {
		return 0, 0, err
	}
	if _, err := mapping.NewPlan(dc, pc); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

func runWSESim(rc *runCtx) error {
	fields, err := nyxFields(rc.seed, simField)
	if err != nil {
		return err
	}
	f := fields[0]
	hostComp, st, err := ceresz.Compress(nil, f, hostBound, ceresz.Options{})
	if err != nil {
		return err
	}
	hostRec, err := ceresz.Decompress(nil, hostComp)
	if err != nil {
		return err
	}
	rc.refs = append(rc.refs, refInput{data: f, eps: st.Eps})
	width, err := stages.EstimateWidth(f, st.Eps, core.DefaultBlockLen, 20)
	if err != nil {
		return err
	}
	// Set-up is what precedes the first injected block: the sampled width
	// estimate, both directions' plans and their simulated meshes.
	var setups []opTime
	for i := 0; i < 41; i++ {
		t, err := rc.speed.timeOp(func() error {
			if _, _, err := planOnce(f, st.Eps, width); err != nil {
				return err
			}
			for j := 0; j < 2; j++ {
				if _, err := wse.NewMesh(wse.Config{Rows: simRows, Cols: simCols}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, t)
	}

	var cops, dops []opTime
	var runS, tracedRT, plainRT []float64
	var ref simCounts
	var last [2]*ceresz.SimResult
	ph := startPhase()
	deadline := ph.start.Add(rc.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		traced := rc.trace && i%2 == 1
		rc.attempted += 2
		var c, d *ceresz.SimResult
		tc, err := rc.simCall(traced, "compress", func() (r *ceresz.SimResult, err error) {
			c, err = ceresz.SimulateCompress(f, hostBound, simMesh)
			return c, err
		})
		if err != nil {
			rc.failed++
			ph.stop()
			return err
		}
		td, err := rc.simCall(traced, "decompress", func() (r *ceresz.SimResult, err error) {
			d, err = ceresz.SimulateDecompress(c.Bytes, simMesh)
			return d, err
		})
		if err != nil {
			rc.failed++
			ph.stop()
			return err
		}
		if err := checkSim(c, d, hostComp, hostRec); err != nil {
			rc.failed++
			ph.stop()
			return err
		}
		k := countsOf(c, d)
		if i == 0 {
			ref = k
		} else if k != ref {
			rc.failed++
			ph.stop()
			return fmt.Errorf("%w: simulated counts changed between rounds: %+v vs %+v", errCheck, k, ref)
		}
		last = [2]*ceresz.SimResult{c, d}
		runS = append(runS, float64(c.Telemetry.Timers["sim.run_wall"].SumNs+d.Telemetry.Timers["sim.run_wall"].SumNs)/1e9)
		if traced {
			tracedRT = append(tracedRT, ms(tc.wall+td.wall))
			continue
		}
		plainRT = append(plainRT, ms(tc.wall+td.wall))
		cops, dops = append(cops, tc), append(dops, td)
	}
	ph.stop()

	raw := float64(4 * len(f))
	if err := rc.putOps(setups, cops, dops, float64(len(cops))*raw); err != nil {
		return err
	}
	rc.put("ratio", raw/float64(len(hostComp)))
	rc.put("peak_heap_mib", ph.peakHeapMiB)
	rc.phaseProc(ph, float64(len(plainRT)+len(tracedRT)))
	if !rc.trace {
		return nil
	}
	rc.put("telemetry.trace_overhead_pct", (mean(tracedRT)/mean(plainRT)-1)*100)
	c, d := last[0], last[1]
	rc.put("wse.run_s", median(runS))
	rc.put("wse.events", float64(ref.events))
	rc.put("wse.events_per_s", float64(ref.events)/median(runS))
	rc.put("wse.shard_imbalance_pct", float64(c.Telemetry.Gauges["sim.shard_imbalance_pct"]))
	rc.put("wse.pool_peak_workers", float64(max(c.Telemetry.Gauges["sim.pool_peak_workers"], d.Telemetry.Gauges["sim.pool_peak_workers"])))
	rc.put("wse.cycles_compute", float64(ref.compute))
	rc.put("wse.cycles_relay", float64(ref.relay))
	rc.put("wse.cycles_queue_wait", float64(ref.queueWait))
	rc.put("wse.cycles_fabric_stall", float64(ref.fabric))
	rc.put("wse.cycles_idle", float64(ref.idle))
	rc.put("wse.compress_gbps", c.ThroughputGBps)
	rc.put("wse.decompress_gbps", d.ThroughputGBps)
	return nil
}

// simCall times one simulation call; traced, it records the call as a
// wse-layer span with the mesh run (the simulator's own sim.run_wall)
// as its last child.
func (rc *runCtx) simCall(traced bool, name string, fn func() (*ceresz.SimResult, error)) (opTime, error) {
	var r *ceresz.SimResult
	t, err := rc.speed.timeOp(func() (err error) {
		r, err = fn()
		return err
	})
	if traced && err == nil {
		t1 := t.start.Add(t.wall)
		id := rc.spans.add(&span{layer: "wse", name: "simulate " + name, start: t.start, end: t1})
		run := time.Duration(r.Telemetry.Timers["sim.run_wall"].SumNs)
		rc.spans.add(&span{parent: id, layer: "wse", name: "mesh run", start: t1.Add(-run), end: t1, accumulated: true})
	}
	return t, err
}

// checkSim holds the simulator to the host codec: the same stream bytes
// and the same reconstruction, bit for bit.
func checkSim(c, d *ceresz.SimResult, hostComp []byte, hostRec []float32) error {
	if !bytes.Equal(c.Bytes, hostComp) {
		return fmt.Errorf("%w: simulated stream differs from host Compress", errCheck)
	}
	if len(d.Data) != len(hostRec) {
		return fmt.Errorf("%w: simulated reconstruction has %d elements, want %d", errCheck, len(d.Data), len(hostRec))
	}
	for i := range hostRec {
		if math.Float32bits(d.Data[i]) != math.Float32bits(hostRec[i]) {
			return fmt.Errorf("%w: simulated reconstruction differs from host Decompress at %d", errCheck, i)
		}
	}
	return nil
}
