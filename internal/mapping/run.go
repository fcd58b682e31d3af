package mapping

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ceresz/internal/core"
	"ceresz/internal/flenc"
	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
	"ceresz/internal/wse"
)

// Fabric colors used by the mapping (well inside the 24 available).
const (
	// colorRaw carries unprocessed blocks east along a row (the Fig. 9
	// relay traffic).
	colorRaw wse.Color = 0
	// colorStage carries intermediate block state between consecutive PEs
	// of one pipeline.
	colorStage wse.Color = 1
	// colorColumn carries raw blocks down the west column in single-ingress
	// mode (all data entering at PE(0,0)).
	colorColumn wse.Color = 2
)

// flowBlock is the payload traveling the fabric: one block and its global
// position, so the emitted stream can be reassembled in order.
type flowBlock struct {
	id  int
	row int                // striped-to row: its pool, arena and ingress
	raw []float32          // compression input (nil for decompression)
	enc []byte             // decompression input (nil for compression)
	st  *stages.BlockState // held from head capture to tail hand-off
	// off and n locate a compressed block's bytes in its row's arena.
	off, n  int
	emitted bool // seen by checkEmissions
}

// simRun is one simulated run's host-side data, shared by the programs
// installed for it. Its memory scales with the blocks' own bytes plus the
// mesh and the blocks in flight: block state is pooled per row, and
// blocks enter through one host stream per ingress.
type simRun struct {
	blocks []flowBlock // every block of the run, indexed by id
	rows   []rowRun
	out    []float32 // the reconstruction (decompression)
}

// rowRun is one mesh row's share of a run. Only the row's own PEs touch
// it, and a row is never split between shard engines, so it needs no
// lock.
type rowRun struct {
	// arena holds the compressed bytes of the row's blocks, in the order
	// its tails finished them (compression).
	arena []byte
	// free pools the block states of the row's pipelines — the host-side
	// mirror of the working set their PEs reserve in Init: a head takes a
	// state when it captures a block, and the tail returns it once the
	// result is copied out.
	free  []*stages.BlockState
	owned int // states allocated so far
}

// take hands out a free block state. An empty pool grows by as many
// states as it already owns (at least one per pipeline), so a row whose
// tails fall behind their heads allocates O(log in-flight) times, not
// once per captured block.
func (rr *rowRun) take(L, pipelines int) *stages.BlockState {
	if len(rr.free) == 0 {
		batch := stages.NewBlockStates(L, max(pipelines, rr.owned))
		rr.owned += len(batch)
		rr.free = slices.Grow(rr.free, rr.owned)
		for i := range batch {
			rr.free = append(rr.free, &batch[i])
		}
	}
	n := len(rr.free) - 1
	st := rr.free[n]
	rr.free = rr.free[:n]
	return st
}

// peProgram is the per-PE code: relay raw blocks for pipelines to the
// east, capture every (pipelinesEast+1)-th raw block if a head, and run
// the assigned stage group on pipeline traffic (paper Fig. 9b).
type peProgram struct {
	plan   *Plan
	run    *simRun
	isHead bool
	isTail bool
	group  Group

	relayInit int // blocks to relay between two captures
	relayLeft int
}

// Init implements wse.Program: reserve this PE's static working set — its
// share of the block state plus a relay buffer when raw traffic passes
// through — against the 48 KB budget.
func (pp *peProgram) Init(ctx *wse.Context) {
	pp.relayLeft = pp.relayInit
	L := pp.plan.Chain.Cfg.BlockLen
	bytes := stateBytes(L) / pp.plan.Cfg.PipelineLen
	if pp.relayInit > 0 || !pp.isHead {
		bytes += relayBytes(L)
	}
	if err := ctx.Alloc(bytes); err != nil {
		// Unreachable: NewPlan's checkMemory is strictly more conservative.
		panic(err)
	}
}

// OnMessage implements wse.Program.
func (pp *peProgram) OnMessage(ctx *wse.Context, msg wse.Message) {
	switch msg.Color {
	case colorColumn:
		// Single-ingress distribution: raw blocks flow south down the west
		// column; each row head peels off its own rows' blocks and turns
		// them into ordinary row traffic.
		fb := msg.Payload.(*flowBlock)
		if fb.row != ctx.Coord().Row {
			ctx.LabelSpan("feed")
			ctx.Forward(wse.South, msg)
			return
		}
		msg.Color = colorRaw
		pp.OnMessage(ctx, msg)
	case colorRaw:
		if !pp.isHead {
			// Interior PEs relay raw traffic toward farther pipelines.
			ctx.LabelSpan("relay")
			ctx.Forward(wse.East, msg)
			return
		}
		if pp.relayLeft > 0 {
			pp.relayLeft--
			ctx.LabelSpan("relay")
			ctx.Forward(wse.East, msg)
			return
		}
		pp.relayLeft = pp.relayInit
		fb := msg.Payload.(*flowBlock)
		fb.st = pp.run.rows[fb.row].take(pp.plan.Chain.Cfg.BlockLen, pp.plan.Pipelines)
		if pp.plan.Chain.Dir == stages.Compress {
			fb.st.ResetForCompress(fb.raw)
		} else {
			fb.st.ResetForDecompress(fb.enc)
		}
		pp.process(ctx, fb)
	case colorStage:
		pp.process(ctx, msg.Payload.(*flowBlock))
	default:
		panic(fmt.Sprintf("mapping: unexpected color %d at %v", msg.Color, ctx.Coord()))
	}
}

// ShardProfile implements wse.ShardAware: all of the mapping's row
// traffic is strictly east-bound (colorRaw relays, colorStage pipeline
// hand-offs), so every row can simulate as its own shard. In
// single-ingress mode the column-0 heads additionally receive the
// colorColumn feed from the row above, which the engine resolves with
// its deterministic pre-pass.
func (pp *peProgram) ShardProfile() wse.ShardProfile {
	prof := wse.ShardProfile{RowLocal: true}
	if pp.plan.Cfg.SingleIngress {
		prof.FeedColors = []wse.Color{colorColumn}
	}
	return prof
}

func (pp *peProgram) process(ctx *wse.Context, fb *flowBlock) {
	chain := pp.plan.Chain
	ctx.LabelSpan(pp.plan.groupLabels[ctx.Coord().Col%pp.plan.Cfg.PipelineLen])
	for i := pp.group.Lo; i < pp.group.Hi; i++ {
		ctx.Spend(chain.Stages[i].Cycles(fb.st))
		chain.Stages[i].Run(fb.st)
	}
	if pp.isTail {
		w := fb.st.Wavelets()
		pp.release(fb)
		ctx.Emit(fb, w)
		return
	}
	ctx.Send(wse.East, wse.Message{
		Color:    colorStage,
		Payload:  fb,
		Wavelets: fb.st.Wavelets(),
	})
}

// release copies a finished block's result out of its state — the
// encoded bytes into the row's arena, or the decoded floats straight into
// the reconstruction — and returns the state to the row's pool.
func (pp *peProgram) release(fb *flowBlock) {
	st, rr := fb.st, &pp.run.rows[fb.row]
	if pp.plan.Chain.Dir == stages.Compress {
		fb.off, fb.n = len(rr.arena), len(st.Encoded)
		rr.arena = append(rr.arena, st.Encoded...)
	} else {
		lo := fb.id * len(st.Raw)
		copy(pp.run.out[lo:min(lo+len(st.Raw), len(pp.run.out))], st.Raw)
	}
	fb.st = nil
	rr.free = append(rr.free, st)
}

// Result reports one simulated run.
type Result struct {
	// Bytes is the compressed stream (compression runs).
	Bytes []byte
	// Data is the reconstructed field (decompression runs).
	Data []float32
	// Cycles is the completion time of the last PE (§4.1's measurement).
	Cycles int64
	// Seconds is Cycles at the configured clock.
	Seconds float64
	// ThroughputGBps is uncompressed-bytes / Seconds / 1e9 — the paper's
	// throughput metric for both directions (§5.1.4).
	ThroughputGBps float64
	// Mesh exposes per-PE statistics for profiling (Fig. 10).
	Mesh *wse.Mesh
	// Meta is the stream metadata.
	Meta core.Meta
	// Telemetry is the run's private instrument snapshot: simulated cycle
	// accounting, relay occupancy, per-stage-group load, and the host-side
	// cost of the simulation itself. Each run gets its own registry, so
	// concurrent simulations never mix.
	Telemetry telemetry.Snapshot
	// Attribution is the per-PE timeline decomposition (compute,
	// relay-forward, queue-wait, fabric-stall, idle) of the run; every
	// PE's buckets sum to Cycles exactly, and the whole structure is
	// bit-identical across Mesh.Workers settings.
	Attribution wse.Attribution
	// Spans holds every block's assembled lifecycle when
	// PlanConfig.RecordSpans is set (nil otherwise).
	Spans []wse.BlockSpan
	// SpanLog is the raw span log behind Spans, for Perfetto export
	// (nil unless RecordSpans).
	SpanLog *wse.SpanLog
}

// install wires the plan's programs for run rs onto rows [0, rows) of
// the mesh. Unless ProcessorRelay is set, interior pipeline PEs get a
// static router route for the raw-block color, so crossing traffic never
// touches their processor.
func (p *Plan) install(m *wse.Mesh, rs *simRun, rows int) {
	pl := p.Cfg.PipelineLen
	progs := make([]peProgram, rows*p.Pipelines*pl)
	for r := 0; r < rows; r++ {
		for pipe := 0; pipe < p.Pipelines; pipe++ {
			for pos := 0; pos < pl; pos++ {
				col := pipe*pl + pos
				interiorWithTraffic := pos > 0 && pipe < p.Pipelines-1
				if interiorWithTraffic && !p.Cfg.ProcessorRelay {
					m.SetRoute(r, col, colorRaw, wse.East)
				}
				pp := &progs[(r*p.Pipelines+pipe)*pl+pos]
				*pp = peProgram{
					plan:      p,
					run:       rs,
					isHead:    pos == 0,
					isTail:    pos == pl-1,
					group:     p.Groups[pos],
					relayInit: p.Pipelines - pipe - 1,
				}
				m.SetProgram(r, col, pp)
			}
		}
	}
}

// feed streams count blocks — ids first, first+stride, … — into PE(row, 0)
// on color, at link rate or the configured interval. The mesh pulls each
// block from the stream only when the previous one is delivered.
func (p *Plan) feed(m *wse.Mesh, blocks []flowBlock, row int, color wse.Color, first, stride, count int, wavelets func(*flowBlock) int) {
	t := int64(0)
	m.InjectStream(row, 0, count, func(k int) (wse.Message, int64) {
		fb := &blocks[first+k*stride]
		w := wavelets(fb)
		at := t
		if p.Cfg.InjectInterval > 0 {
			t += p.Cfg.InjectInterval
		} else {
			t += int64(w) + m.Config().LinkLatency
		}
		return wse.Message{Color: color, Payload: fb, Wavelets: w, Span: int64(fb.id) + 1}, at
	})
}

// simulate runs rs's blocks through the plan on a fresh mesh: blocks are
// striped over rows (row r gets blocks r, r+rows, r+2·rows, …) and enter
// at each row's first PE, or all through PE(0,0) in single-ingress mode.
func (p *Plan) simulate(rs *simRun, meta core.Meta, traceCap int, wavelets func(*flowBlock) int) (*Result, *wse.Tracer, error) {
	nBlocks := len(rs.blocks)
	m, err := wse.NewMesh(p.Cfg.Mesh)
	if err != nil {
		return nil, nil, err
	}
	var tr *wse.Tracer
	if traceCap > 0 {
		tr = m.AttachTracer(traceCap)
	}
	var spanLog *wse.SpanLog
	if p.Cfg.RecordSpans {
		spanLog = m.AttachSpans()
	}
	rows := p.Cfg.Mesh.Rows
	if rows > nBlocks && nBlocks > 0 {
		rows = nBlocks
	}
	for b := range rs.blocks {
		rs.blocks[b].id, rs.blocks[b].row = b, b%rows
	}
	rowBlocks := func(r int) int { return (nBlocks - r + rows - 1) / rows }
	rs.rows = make([]rowRun, rows)
	if p.Chain.Dir == stages.Compress {
		// Size each row's arena for the plan's width estimate, so that
		// rows rarely regrow it.
		cfg := p.Chain.Cfg
		est := flenc.EncodedSize(uint(cfg.EstWidth), cfg.BlockLen, cfg.HeaderBytes)
		for r := range rs.rows {
			rs.rows[r].arena = make([]byte, 0, est*rowBlocks(r))
		}
	}
	p.install(m, rs, rows)
	if p.Cfg.SingleIngress {
		p.feed(m, rs.blocks, 0, colorColumn, 0, 1, nBlocks, wavelets)
	} else {
		for r := 0; r < rows; r++ {
			p.feed(m, rs.blocks, r, colorRaw, r, rows, rowBlocks(r), wavelets)
		}
	}

	runStart := time.Now()
	cycles, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	wall := time.Since(runStart)
	if err := checkEmissions(m, nBlocks); err != nil {
		return nil, nil, err
	}
	return p.newResult(m, cycles, int64(4*meta.Elements), meta, wall, spanLog), tr, nil
}

// CompressTraced is Compress with a wse.Tracer attached (capturing up to
// capEntries events), for debugging the schedule.
func (p *Plan) CompressTraced(data []float32, capEntries int) (*wse.Tracer, *Result, error) {
	res, tr, err := p.compress(data, capEntries)
	return tr, res, err
}

// DecompressTraced is Decompress with a wse.Tracer attached (capturing up
// to capEntries events).
func (p *Plan) DecompressTraced(comp []byte, capEntries int) (*wse.Tracer, *Result, error) {
	res, tr, err := p.decompress(comp, capEntries)
	return tr, res, err
}

// Compress runs the plan on data and returns the compressed stream, which
// is byte-identical to internal/core's for the same parameters.
func (p *Plan) Compress(data []float32) (*Result, error) {
	res, _, err := p.compress(data, 0)
	return res, err
}

func (p *Plan) compress(data []float32, traceCap int) (*Result, *wse.Tracer, error) {
	if p.Chain.Dir != stages.Compress {
		return nil, nil, fmt.Errorf("mapping: Compress on a %v chain", p.Chain.Dir)
	}
	L := p.Chain.Cfg.BlockLen
	rs := &simRun{blocks: make([]flowBlock, (len(data)+L-1)/L)}
	for b := range rs.blocks {
		rs.blocks[b].raw = data[b*L : min((b+1)*L, len(data))]
	}
	meta := core.Meta{
		HeaderBytes: p.Chain.Cfg.HeaderBytes,
		BlockLen:    L,
		Elements:    len(data),
		Eps:         p.Chain.Cfg.Eps,
	}
	res, tr, err := p.simulate(rs, meta, traceCap, func(*flowBlock) int { return L })
	if err != nil {
		return nil, nil, err
	}
	size := core.StreamHeaderSize
	for i := range rs.blocks {
		size += rs.blocks[i].n
	}
	out := core.AppendStreamHeader(make([]byte, 0, size), meta)
	for i := range rs.blocks {
		fb := &rs.blocks[i]
		out = append(out, rs.rows[fb.row].arena[fb.off:fb.off+fb.n]...)
	}
	res.Bytes = out
	return res, tr, nil
}

// Decompress runs the plan on a compressed stream and reconstructs the
// data, exactly as internal/core.Decompress would.
func (p *Plan) Decompress(comp []byte) (*Result, error) {
	res, _, err := p.decompress(comp, 0)
	return res, err
}

func (p *Plan) decompress(comp []byte, traceCap int) (*Result, *wse.Tracer, error) {
	if p.Chain.Dir != stages.Decompress {
		return nil, nil, fmt.Errorf("mapping: Decompress on a %v chain", p.Chain.Dir)
	}
	meta, offsets, err := core.BlockOffsets(comp)
	if err != nil {
		return nil, nil, err
	}
	if meta.Elem != core.Float32 {
		return nil, nil, fmt.Errorf("mapping: stream holds %s elements, the simulated pipeline decodes float32", meta.Elem)
	}
	if meta.BlockLen != p.Chain.Cfg.BlockLen {
		return nil, nil, fmt.Errorf("mapping: stream block length %d does not match plan's %d", meta.BlockLen, p.Chain.Cfg.BlockLen)
	}
	if meta.HeaderBytes != p.Chain.Cfg.HeaderBytes {
		return nil, nil, fmt.Errorf("mapping: stream header size %d does not match plan's %d", meta.HeaderBytes, p.Chain.Cfg.HeaderBytes)
	}
	if meta.Eps != p.Chain.Cfg.Eps {
		return nil, nil, fmt.Errorf("mapping: stream ε %g does not match plan's %g", meta.Eps, p.Chain.Cfg.Eps)
	}
	body := comp[core.StreamHeaderSize:]
	rs := &simRun{
		blocks: make([]flowBlock, meta.Blocks()),
		out:    make([]float32, meta.Elements),
	}
	for b := range rs.blocks {
		rs.blocks[b].enc = body[offsets[b]:offsets[b+1]]
	}
	res, tr, err := p.simulate(rs, meta, traceCap, func(fb *flowBlock) int { return (len(fb.enc) + 3) / 4 })
	if err != nil {
		return nil, nil, err
	}
	res.Data = rs.out
	return res, tr, nil
}

func (p *Plan) newResult(m *wse.Mesh, cycles, inputBytes int64, meta core.Meta, wall time.Duration, spanLog *wse.SpanLog) *Result {
	secs := m.Seconds(cycles)
	tput := 0.0
	if secs > 0 {
		tput = float64(inputBytes) / secs / 1e9
	}
	res := &Result{
		Cycles:         cycles,
		Seconds:        secs,
		ThroughputGBps: tput,
		Mesh:           m,
		Meta:           meta,
		Attribution:    m.Attribution(),
		SpanLog:        spanLog,
	}
	if spanLog != nil {
		res.Spans = spanLog.BlockSpans()
	}
	res.Telemetry = p.runTelemetry(m, cycles, wall, res.Attribution)
	return res
}

// runTelemetry fills a fresh registry with the run's accounting: simulated
// cycle totals split by kind, stall attribution, worker-pool occupancy,
// relay occupancy, estimated versus measured per-stage-group load, and the
// host wall time the simulation itself took. The same values also land on
// the Default registry (no-op unless a CLI enabled it), so a long-running
// bench server exposes them at /debug/metrics across runs.
func (p *Plan) runTelemetry(m *wse.Mesh, cycles int64, wall time.Duration, att wse.Attribution) telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Timer("sim.run_wall").Observe(wall)
	reg.Counter("sim.events").Add(m.Processed())
	reg.Counter("sim.cycles").Add(cycles)
	reg.Gauge("sim.shards").Set(int64(m.Shards()))
	reg.Gauge("sim.workers").Set(int64(m.Workers()))
	s := m.Summary()
	reg.Counter("sim.cycles.compute").Add(s.TotalCompute)
	reg.Counter("sim.cycles.relay").Add(s.TotalRelay)
	reg.Counter("sim.cycles.send").Add(s.TotalSend)
	reg.Counter("sim.cycles.queue_wait").Add(att.Totals.QueueWait)
	reg.Counter("sim.cycles.fabric_stall").Add(att.Totals.FabricStall)
	reg.Counter("sim.cycles.idle").Add(att.Totals.Idle)
	reg.Counter("sim.cycles.mailbox_wait").Add(att.Totals.MailboxWait)
	reg.Counter("sim.forwards").Add(att.Totals.Forwarded)
	reg.Gauge("sim.active_pes").Set(int64(s.ActivePEs))
	reg.Gauge("sim.mem_peak_bytes").Set(int64(s.MemPeak))
	reg.Gauge("sim.mean_utilization_pct").Set(int64(100 * s.MeanUtilization))
	if busy := s.TotalCompute + s.TotalRelay + s.TotalSend; busy > 0 {
		reg.Gauge("sim.relay_share_pct").Set(100 * s.TotalRelay / busy)
	}
	// Worker-pool occupancy for the sharded engine. Pool peak is host-side
	// (scheduler-dependent) like sim.run_wall; the shard event counts are
	// deterministic, and their spread measures how balanced the row shards
	// were.
	reg.Gauge("sim.pool_peak_workers").Set(int64(m.PoolPeak()))
	reg.Counter("sim.feed_events").Add(m.FeedEvents())
	if se := m.ShardEvents(); len(se) > 0 {
		minE, maxE := se[0], se[0]
		for _, n := range se[1:] {
			if n < minE {
				minE = n
			}
			if n > maxE {
				maxE = n
			}
		}
		reg.Gauge("sim.shard_events_min").Set(minE)
		reg.Gauge("sim.shard_events_max").Set(maxE)
		if maxE > 0 {
			reg.Gauge("sim.shard_imbalance_pct").Set(100 * (maxE - minE) / maxE)
		}
	}
	// Per-stage-group load: Algorithm 1's estimate next to what the mesh
	// actually measured. Column c holds pipeline position c mod PipelineLen,
	// so summing RowProfile compute per position recovers the group split.
	perPos := make([]int64, p.Cfg.PipelineLen)
	for r := 0; r < m.Config().Rows; r++ {
		for c, st := range m.RowProfile(r) {
			perPos[c%p.Cfg.PipelineLen] += st.ComputeCycles
		}
	}
	for pos, g := range p.Groups {
		reg.Counter(fmt.Sprintf("plan.group%02d.est_cycles", pos)).Add(GroupCost(p.EstCosts, g))
		reg.Counter(fmt.Sprintf("plan.group%02d.compute_cycles", pos)).Add(perPos[pos])
	}
	snap := reg.Snapshot()
	mirrorToDefault(snap)
	return snap
}

// mirrorToDefault replays a run's private snapshot onto the process-wide
// Default registry — a no-op unless a CLI enabled it — so a long-running
// process (cereszbench -debug-addr) exposes simulator readings at
// /debug/metrics and /debug/telemetry across runs. Counters accumulate;
// gauges keep the latest run's level.
func mirrorToDefault(s telemetry.Snapshot) {
	if !telemetry.Enabled() {
		return
	}
	for name, v := range s.Counters {
		telemetry.C(name).Add(v)
	}
	for name, v := range s.Gauges {
		if strings.HasSuffix(name, ".max") {
			continue // snapshot artifact of the source gauge, not a gauge itself
		}
		telemetry.G(name).Set(v)
	}
	for name, t := range s.Timers {
		if t.Count > 0 {
			telemetry.T(name).Observe(time.Duration(t.SumNs))
		}
	}
}

// checkEmissions verifies that every block left the wafer exactly once.
func checkEmissions(m *wse.Mesh, nBlocks int) error {
	ems := m.Emissions()
	if len(ems) != nBlocks {
		return fmt.Errorf("mapping: %d blocks emitted, want %d", len(ems), nBlocks)
	}
	for _, e := range ems {
		fb, ok := e.Payload.(*flowBlock)
		if !ok {
			return fmt.Errorf("mapping: unexpected emission payload %T", e.Payload)
		}
		if fb.emitted {
			return fmt.Errorf("mapping: block %d emitted twice", fb.id)
		}
		fb.emitted = true
	}
	return nil
}
