package wse

import (
	"fmt"
)

// Config describes a simulated wafer.
type Config struct {
	// Rows and Cols give the mesh geometry. The full CS-2 exposes
	// 750×994 usable PEs (§5.1.1).
	Rows, Cols int
	// MemPerPE is the local memory budget in bytes (default 48 KB).
	MemPerPE int
	// LinkLatency is the fixed per-hop cycle cost before a message's
	// wavelets stream across a link (default 1).
	LinkLatency int64
	// RampLatency is the fixed cost of moving a message between local
	// memory and the fabric (default 4); it is why C₂ > C₁ in §4.3.
	RampLatency int64
	// MsgOverhead is the per-message processor cost of receiving and
	// re-issuing a fabric transfer (task activation + DSD setup, §2.1's
	// data-triggering mechanism). It is charged on every Forward in
	// addition to the wavelet streaming time. Default 0; the CereSZ
	// mapping sets its own calibrated value.
	MsgOverhead int64
	// ClockHz converts cycles to seconds (default 850 MHz, §5.1.1).
	ClockHz float64
	// MaxEvents aborts a runaway simulation (default 500M events).
	MaxEvents int64
	// Workers bounds the host worker pool for row-sharded simulation:
	// 0 runs one worker per available CPU (GOMAXPROCS), 1 forces the
	// sequential reference engine, N > 1 uses at most N workers.
	// Sharding changes nothing observable — cycle counts, emission order
	// and per-PE stats are identical to Workers: 1 (see DESIGN.md,
	// "Simulator engine").
	Workers int
}

// FullWSE is the usable mesh geometry of the CS-2 (§5.1.1).
var FullWSE = Config{Rows: 750, Cols: 994}

// WithDefaults returns the config with unset fields defaulted.
func (c Config) WithDefaults() Config {
	if c.MemPerPE == 0 {
		c.MemPerPE = 48 * 1024
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 1
	}
	if c.RampLatency == 0 {
		c.RampLatency = 4
	}
	if c.ClockHz == 0 {
		c.ClockHz = 850e6
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
	return c
}

// Mesh is a simulated 2D grid of PEs with a discrete-event engine.
type Mesh struct {
	cfg Config
	pes []PE

	// routes is the dense router table: routes[pe*NumColors+color] is
	// the pass-through direction, or routeNone. Allocated lazily on the
	// first SetRoute (~18 MB for the full wafer, nil for meshes that
	// route nothing).
	routes []int8
	// routeColorMask has bit c set when any PE routes color c.
	routeColorMask uint32
	// glue[r] marks rows r and r+1 inseparable for sharding because a
	// North/South route crosses their boundary (programs contribute
	// their own glue at partition time; see shard.go).
	glue []bool

	// pending collects work scheduled before the event loops start: the
	// first message of every host stream, then everything the Init phase
	// sends. Run bins it into shards by destination row.
	pending []event
	// injectSeq is the next unreserved host ordering seq; each stream
	// reserves one per message when it is registered.
	injectSeq int64
	// ingress holds the host streams of more than one message. It is
	// read-only once Run starts, so shard engines share it freely.
	ingress []ingress

	processed int64
	emissions []Emission
	emitTo    func(Emission)
	tracer    *Tracer
	spans     *SpanLog

	// linkFree[pe][dir] is the cycle at which PE pe's outgoing link
	// toward dir becomes free; messages on one link serialize. A cell is
	// only ever written while simulating its owning PE, so shards never
	// race on it.
	linkFree [][4]int64

	shards  int
	workers int
	// shardEvents is the per-shard-engine processed-event count of the
	// last Run (one entry for the sequential engine). Deterministic: it
	// depends only on the partition, never on worker scheduling.
	shardEvents []int64
	// feedEvents counts events the column-feed pre-pass processed.
	feedEvents int64
	// poolPeak is the peak number of concurrently running workers seen in
	// the last Run — a host-side occupancy measure, NOT deterministic
	// across runs; it feeds telemetry only.
	poolPeak int
	ran      bool
}

// routeNone marks an unrouted (pe, color) slot in the dense route table.
const routeNone = int8(-1)

// hostSrc is the event-ordering origin for host injections; it sorts
// before every PE index.
const hostSrc = int32(-1)

// NewMesh builds a mesh of idle PEs.
func NewMesh(cfg Config) (*Mesh, error) {
	cfg = cfg.WithDefaults()
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("wse: invalid mesh %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Rows*cfg.Cols > 4_000_000 {
		return nil, fmt.Errorf("wse: mesh %dx%d exceeds simulator capacity", cfg.Rows, cfg.Cols)
	}
	m := &Mesh{cfg: cfg}
	m.pes = make([]PE, cfg.Rows*cfg.Cols)
	for i := range m.pes {
		m.pes[i] = PE{coord: Coord{Row: i / cfg.Cols, Col: i % cfg.Cols}, idx: int32(i), mesh: m}
	}
	m.linkFree = make([][4]int64, cfg.Rows*cfg.Cols)
	m.glue = make([]bool, cfg.Rows)
	return m, nil
}

// Config returns the mesh configuration (with defaults applied).
func (m *Mesh) Config() Config { return m.cfg }

// PE returns the PE at (row, col).
func (m *Mesh) PE(row, col int) *PE {
	if row < 0 || row >= m.cfg.Rows || col < 0 || col >= m.cfg.Cols {
		panic(fmt.Sprintf("wse: PE(%d,%d) outside %dx%d mesh", row, col, m.cfg.Rows, m.cfg.Cols))
	}
	return &m.pes[row*m.cfg.Cols+col]
}

// SetProgram installs a program on a PE. Must be called before Run.
func (m *Mesh) SetProgram(row, col int, p Program) {
	if m.ran {
		panic("wse: SetProgram after Run")
	}
	m.PE(row, col).program = p
}

// SetRoute configures the PE's fabric router to forward messages of the
// given color toward out without involving the processor — the static
// color routing of paper Fig. 3. Routed messages cost only link time;
// they are never delivered to the PE's program. Must be called before Run.
func (m *Mesh) SetRoute(row, col int, color Color, out Dir) {
	if m.ran {
		panic("wse: SetRoute after Run")
	}
	if !color.Valid() {
		panic(fmt.Sprintf("wse: invalid color %d", color))
	}
	if out == Ramp {
		panic("wse: route toward Ramp would be a normal delivery; omit the route instead")
	}
	pe := m.PE(row, col)
	if _, ok := m.neighbor(pe.coord, out); !ok {
		panic(fmt.Sprintf("wse: route at %v toward %v leaves the mesh", pe.coord, out))
	}
	if m.routes == nil {
		m.routes = make([]int8, len(m.pes)*NumColors)
		for i := range m.routes {
			m.routes[i] = routeNone
		}
	}
	m.routes[int(pe.idx)*NumColors+int(color)] = int8(out)
	m.routeColorMask |= 1 << uint(color)
	switch out {
	case North:
		m.glue[row-1] = true
	case South:
		m.glue[row] = true
	}
}

// routeOf returns the router pass-through direction for a color at a PE,
// or routeNone.
func (m *Mesh) routeOf(pe int32, color Color) int8 {
	if m.routes == nil {
		return routeNone
	}
	return m.routes[int(pe)*NumColors+int(color)]
}

// Inject schedules an external message delivery to a PE at the given cycle
// — the simulator's stand-in for data flowing onto the wafer from the host
// (the paper assumes "the input data is generated on the first PE of each
// row", §4.3). The message arrives from direction West carrying the
// OffWafer source sentinel, so programs can distinguish host ingress from
// fabric traffic. Inject is InjectStream with one message.
func (m *Mesh) Inject(row, col int, msg Message, at int64) {
	m.addIngress(m.PE(row, col).idx, 1, msg, at, nil)
}

// ingress is a host stream of n messages into one PE. Its messages carry
// the ordering seqs [seq, seq+n); delivering message k schedules message
// k+1, so the event queue holds at most one message of each stream.
type ingress struct {
	seq  int64
	n    int
	next func(k int) (Message, int64)
}

// InjectStream schedules a host stream of n messages into PE(row, col),
// each delivered as by Inject: next(k) returns message k and its delivery
// cycle. Only next(0) runs now; next(k+1) runs when message k is
// delivered, on the engine simulating the PE, in order of k — so the
// event queue holds one pending message per stream rather than all n,
// like the single input buffer of a real ingress. Delivery cycles must
// not decrease along the stream. Every message gets exactly the ordering
// key n consecutive Inject calls made now would have given it, so a
// stream schedules bit-identically to eager injection.
func (m *Mesh) InjectStream(row, col, n int, next func(k int) (Message, int64)) {
	if n <= 0 {
		return
	}
	msg, at := next(0)
	m.addIngress(m.PE(row, col).idx, n, msg, at, next)
}

// addIngress registers a host stream and schedules its first message.
func (m *Mesh) addIngress(pe int32, n int, msg Message, at int64, next func(int) (Message, int64)) {
	var id int32
	if n > 1 {
		m.ingress = append(m.ingress, ingress{seq: m.injectSeq, n: n, next: next})
		id = int32(len(m.ingress))
	}
	m.pending = append(m.pending, injection(pe, msg, at, m.injectSeq, id))
	m.injectSeq += int64(n)
}

// injection builds the delivery event of one host message.
func injection(pe int32, msg Message, at, seq int64, ingress int32) event {
	if at < 0 {
		panic("wse: Inject at negative time")
	}
	msg.From = West
	msg.Src = OffWafer
	msg.sentAt = at // the host "let go" at the scheduled delivery time
	return event{at: at, src: hostSrc, ingress: ingress, seq: seq, kind: evDeliver, pe: pe, msg: msg}
}

// advanceIngress schedules the message that follows the just-popped host
// message ev in its stream, if any.
func (e *engine) advanceIngress(ev *event) {
	in := &e.m.ingress[ev.ingress-1]
	k := int(ev.seq-in.seq) + 1
	if k == in.n {
		return
	}
	msg, at := in.next(k)
	if at < ev.at {
		panic(fmt.Sprintf("wse: host stream into %v delivers message %d at cycle %d, before message %d at %d",
			e.m.pes[ev.pe].coord, k, at, k-1, ev.at))
	}
	e.push(injection(ev.pe, msg, at, in.seq+int64(k), ev.ingress))
}

// OnEmit registers a callback invoked for every emission, in emission
// order, in addition to the Emissions log. Under a sharded run the
// callbacks for message-handler emissions fire after the shards finish
// (in the merged deterministic order) rather than while the simulation
// advances.
func (m *Mesh) OnEmit(f func(Emission)) { m.emitTo = f }

// Emissions returns everything programs handed off the wafer, in emission
// order.
func (m *Mesh) Emissions() []Emission { return m.emissions }

// neighbor returns the coordinate adjacent to c in direction d, if any.
func (m *Mesh) neighbor(c Coord, d Dir) (Coord, bool) {
	switch d {
	case North:
		c.Row--
	case South:
		c.Row++
	case East:
		c.Col++
	case West:
		c.Col--
	default:
		return c, false
	}
	if c.Row < 0 || c.Row >= m.cfg.Rows || c.Col < 0 || c.Col >= m.cfg.Cols {
		return c, false
	}
	return c, true
}

// Run executes the simulation until no events remain. It returns the
// number of cycles at which the last PE finished (the paper's runtime
// measurement: "the clock cycles needed for the last PE to finish
// processing its data", §4.1).
func (m *Mesh) Run() (int64, error) {
	m.ran = true

	// Init programs at cycle 0, before any partitioning — Init sends may
	// legitimately cross rows and are simply binned to the destination
	// shard along with the host injections.
	ieng := engine{m: m}
	for i := range m.pes {
		pe := &m.pes[i]
		if pe.program == nil {
			continue
		}
		ieng.ctx.reset(pe, 0)
		pe.program.Init(&ieng.ctx)
		ieng.finishHandler(pe, 0)
	}
	pending := append(m.pending, ieng.q.ev...)
	m.pending = nil

	plan := m.partition()
	if !plan.sequential {
		return m.runSharded(plan, pending)
	}
	m.shards, m.workers, m.poolPeak = 1, 1, 1
	seq := engine{m: m, exactLimit: m.cfg.MaxEvents}
	seq.q.ev = pending
	seq.q.heapify()
	err := seq.run()
	m.processed = seq.processed
	m.shardEvents = []int64{seq.processed}
	if err != nil {
		return 0, err
	}
	return m.Elapsed(), nil
}

// Processed returns the number of simulator events handled so far — a
// telemetry measure of how much discrete-event work a run cost the host.
func (m *Mesh) Processed() int64 { return m.processed }

// Elapsed returns the completion cycle of the busiest PE so far.
func (m *Mesh) Elapsed() int64 {
	var last int64
	for i := range m.pes {
		if la := m.pes[i].stats.LastActive; la > last {
			last = la
		}
	}
	return last
}

// Seconds converts cycles to seconds at the configured clock.
func (m *Mesh) Seconds(cycles int64) float64 {
	return float64(cycles) / m.cfg.ClockHz
}

// engine runs one discrete-event loop over a subset of the mesh: the
// whole mesh (the sequential reference), the column-feed pre-pass, or
// one row shard on a worker goroutine. Engines share the mesh's PE and
// link state but only ever touch disjoint parts of it (see shard.go).
type engine struct {
	m   *Mesh
	q   eventHeap
	ctx Context // pooled; reset per handler instead of allocated per dispatch

	processed int64
	// exactLimit is the sequential MaxEvents guard (checked per event);
	// sharded workers instead draw prepaid chunks from shared.
	exactLimit int64
	shared     *eventBudget
	quota      int64

	// feedPhase diverts non-feed deliveries into deferred instead of
	// simulating them — the column-distribution pre-pass.
	feedPhase bool
	deferred  []event

	// restricted enforces a worker shard's PE-index bounds and seals.
	restricted   bool
	idxLo, idxHi int32

	// collect tags emissions and span events with their cause event's
	// key for the deterministic post-run merge, instead of appending
	// them to the mesh logs as they happen.
	collect bool
	emis    []taggedEmission
	spanEvs []taggedSpanEvent
	cause   evKey
}

// taggedEmission is an emission annotated with the ordering key of the
// event whose dispatch produced it.
type taggedEmission struct {
	key evKey
	em  Emission
}

func (t *taggedEmission) orderKey() evKey { return t.key }

// run drains the engine's event queue.
func (e *engine) run() error {
	m := e.m
	for e.q.len() > 0 {
		ev := e.q.pop()
		e.processed++
		if e.shared == nil {
			if e.processed > e.exactLimit {
				return fmt.Errorf("wse: exceeded %d events; likely livelock", m.cfg.MaxEvents)
			}
		} else if err := e.drawQuota(); err != nil {
			return err
		}
		if ev.ingress != 0 {
			e.advanceIngress(&ev)
		}
		pe := &m.pes[ev.pe]
		// Every by-product of processing this event (emissions, span
		// records) is attributed to its ordering key, so sharded runs can
		// merge them back into the sequential processing order.
		e.cause = evKey{at: ev.at, src: ev.src, seq: ev.seq}
		switch ev.kind {
		case evDeliver:
			if d := m.routeOf(ev.pe, ev.msg.Color); d != routeNone {
				// Router pass-through: re-emit on the configured link with
				// no processor involvement (only link serialization).
				m.tracer.record(TraceEntry{At: ev.at, PE: pe.coord, Kind: TraceRoute,
					Color: ev.msg.Color, Wavelets: ev.msg.Wavelets})
				e.routeForward(pe, ev.msg, Dir(d), ev.at)
				continue
			}
			if e.restricted && pe.sealed {
				panic(fmt.Sprintf("wse: delivery on color %d to column-feed PE %v after its pre-pass; its ShardProfile.FeedColors does not cover all of its ingress", ev.msg.Color, pe.coord))
			}
			ev.msg.arrivedAt = ev.at
			if m.spans != nil && ev.msg.Span != 0 && ev.src == hostSrc {
				e.recordSpan(SpanEvent{Span: ev.msg.Span, Kind: SpanInject, PE: pe.coord,
					At: ev.at, End: ev.at, Sent: ev.msg.sentAt, Wavelets: ev.msg.Wavelets})
			}
			pe.qpush(ev.msg)
			if !pe.running {
				e.dispatch(pe, ev.at)
			}
		case evReady:
			pe.running = false
			if pe.qcount > 0 {
				e.dispatch(pe, ev.at)
			}
		}
	}
	return nil
}

// push schedules an event, diverting it when the engine's phase demands:
// the feed pre-pass defers non-feed deliveries to the shards, and worker
// shards refuse deliveries that leave their rows (a broken RowLocal
// promise).
func (e *engine) push(ev event) {
	if ev.kind == evDeliver {
		if e.restricted && (ev.pe < e.idxLo || ev.pe >= e.idxHi) {
			dst := &e.m.pes[ev.pe]
			panic(fmt.Sprintf("wse: shard-profile violation: send into row %d from a shard covering rows [%d,%d); the sender's ShardProfile claims RowLocal",
				dst.coord.Row, int(e.idxLo)/e.m.cfg.Cols, int(e.idxHi)/e.m.cfg.Cols))
		}
		if e.feedPhase && !e.m.isFeed(ev.pe, ev.msg.Color) {
			e.deferred = append(e.deferred, ev)
			return
		}
	}
	e.q.push(ev)
}

// routeForward re-emits a routed message toward out at time t, paying only
// link occupancy (the router moves wavelets in hardware).
func (e *engine) routeForward(pe *PE, msg Message, out Dir, t int64) {
	m := e.m
	dst, ok := m.neighbor(pe.coord, out)
	if !ok {
		panic(fmt.Sprintf("wse: route off mesh at %v", pe.coord))
	}
	free := &m.linkFree[pe.idx][out]
	depart := t
	if *free > depart {
		depart = *free
	}
	arrive := depart + m.cfg.LinkLatency + int64(msg.Wavelets)
	*free = arrive
	fwd := msg // keeps sentAt: the router never takes ownership of the data
	fwd.From = out.Opposite()
	fwd.Src = pe.coord
	pe.stats.Routed++
	if m.spans != nil && msg.Span != 0 {
		e.recordSpan(SpanEvent{Span: msg.Span, Kind: SpanRoute, PE: pe.coord,
			At: t, End: arrive, Sent: msg.sentAt, Wavelets: msg.Wavelets})
	}
	e.push(event{at: arrive, src: pe.idx, seq: pe.pushSeq, kind: evDeliver,
		pe: int32(dst.Row*m.cfg.Cols + dst.Col), msg: fwd})
	pe.pushSeq++
}

// recordSpan appends a span event to the run's log, or — in collect mode
// — tags it with the cause event's ordering key for the post-run merge.
func (e *engine) recordSpan(ev SpanEvent) {
	if e.collect {
		e.spanEvs = append(e.spanEvs, taggedSpanEvent{key: e.cause, ev: ev})
		return
	}
	e.m.spans.events = append(e.m.spans.events, ev)
}

// dispatch pops the next queued message on pe and runs its handler at time t.
func (e *engine) dispatch(pe *PE, t int64) {
	if pe.program == nil {
		// No route and no program: a real fabric would drop the wavelets,
		// but silently losing data in a simulation hides mapping bugs, so
		// the harness fails loudly instead.
		panic(fmt.Sprintf("wse: message delivered to programless PE %v", pe.coord))
	}
	if e.feedPhase {
		// The pre-pass owns this PE's whole timeline from here on; any
		// worker-phase delivery to it is a profile violation.
		pe.sealed = true
	}
	msg := pe.qpop()
	// Attribute the processor-idle gap before this dispatch: up to the
	// producer's hand-off the PE was starved by upstream (queue-wait);
	// from hand-off to delivery the data was on the fabric (fabric-stall).
	// The clamps cover messages sent before the PE went idle and the Init
	// edge case (Init charges cost without a dispatch window, so a
	// delivery can precede LastActive).
	if gap := t - pe.stats.LastActive; gap > 0 {
		idleStart := t - gap
		sent := msg.sentAt
		if sent < idleStart {
			sent = idleStart
		}
		if sent > t {
			sent = t
		}
		pe.stats.QueueWaitCycles += sent - idleStart
		pe.stats.FabricStallCycles += t - sent
	}
	pe.stats.MailboxWaitCycles += t - msg.arrivedAt
	pe.running = true
	e.ctx.reset(pe, t)
	e.ctx.span = msg.Span
	pe.program.OnMessage(&e.ctx, msg)
	pe.stats.Handled++
	end := e.finishHandler(pe, t)
	e.m.tracer.record(TraceEntry{At: t, PE: pe.coord, Kind: TraceDispatch,
		Color: msg.Color, Wavelets: msg.Wavelets, Cycles: end - t})
	if e.m.spans != nil && msg.Span != 0 {
		e.recordSpan(SpanEvent{Span: msg.Span, Kind: SpanDispatch, PE: pe.coord,
			At: t, End: end, Sent: msg.sentAt, Arrived: msg.arrivedAt,
			Label: e.ctx.spanLabel, Wavelets: msg.Wavelets})
	}
	e.push(event{at: end, src: pe.idx, seq: pe.pushSeq, kind: evReady, pe: pe.idx})
	pe.pushSeq++
}

// finishHandler applies a completed handler's effects: schedules its sends
// and updates the PE's busy window. Returns the handler's end time.
func (e *engine) finishHandler(pe *PE, t int64) int64 {
	m := e.m
	ctx := &e.ctx
	end := t + ctx.cost
	if end > pe.stats.LastActive {
		pe.stats.LastActive = end
	}
	pe.busyUntil = end
	for i := range ctx.sends {
		s := &ctx.sends[i]
		dst, ok := m.neighbor(pe.coord, s.dir)
		if !ok {
			panic(fmt.Sprintf("wse: queued send off mesh from %v", pe.coord))
		}
		// The message occupies the outgoing link for its wavelet count;
		// back-to-back messages on one link serialize.
		free := &m.linkFree[pe.idx][s.dir]
		depart := end
		if *free > depart {
			depart = *free
		}
		arrive := depart + m.cfg.LinkLatency + int64(s.msg.Wavelets)
		*free = arrive
		msg := s.msg
		msg.From = s.dir.Opposite()
		msg.sentAt = end // the producer lets go when its handler completes
		e.push(event{at: arrive, src: pe.idx, seq: pe.pushSeq, kind: evDeliver,
			pe: int32(dst.Row*m.cfg.Cols + dst.Col), msg: msg})
		pe.pushSeq++
	}
	for _, p := range ctx.emits {
		em := Emission{From: pe.coord, At: end, Payload: p}
		if m.spans != nil && ctx.span != 0 {
			e.recordSpan(SpanEvent{Span: ctx.span, Kind: SpanEject, PE: pe.coord, At: end, End: end})
		}
		if e.collect {
			e.emis = append(e.emis, taggedEmission{key: e.cause, em: em})
			continue
		}
		m.emissions = append(m.emissions, em)
		m.tracer.record(TraceEntry{At: end, PE: pe.coord, Kind: TraceEmit})
		if m.emitTo != nil {
			m.emitTo(em)
		}
	}
	return end
}
