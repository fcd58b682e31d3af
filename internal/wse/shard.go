package wse

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Row sharding.
//
// Under the paper's data-parallel mapping, rows are fully independent
// (§4.1): every message a row's PEs exchange stays inside the row, so
// each row's event timeline can be simulated on its own. The engine
// detects that property instead of assuming it: rows are partitioned
// into shards — maximal runs of rows with no cross-row sends or routes —
// and each shard runs its own event loop on a worker goroutine. Anything
// the partitioner cannot prove row-local collapses into one shard, which
// is the sequential reference engine.

// ShardProfile declares how a program's traffic relates to the mesh's
// row structure, letting the engine split rows into independently
// simulable shards.
type ShardProfile struct {
	// RowLocal promises the program only sends East or West from its
	// message handlers, except while handling FeedColors traffic (which
	// runs in the sequential pre-pass and may flow South). The promise
	// is enforced: a North/South send from a sharded worker panics.
	RowLocal bool
	// FeedColors lists colors on which the program receives traffic fed
	// in from another row — the single-ingress column distribution of
	// §4.3, where blocks enter at one corner PE and are forwarded South
	// down column 0. Deliveries on these colors are resolved by a
	// deterministic sequential pre-pass before the shards run. The
	// pre-pass must cover the receiving PE's entire timeline, so PEs it
	// dispatches are sealed: any later delivery to them panics.
	FeedColors []Color
}

// ShardAware is optionally implemented by Programs to unlock row
// sharding. Programs without it are conservatively assumed to talk to
// adjacent rows, which glues their row to both neighbors and typically
// collapses the mesh into a single (sequential) shard.
type ShardAware interface {
	ShardProfile() ShardProfile
}

// shardSpan is one shard: the contiguous row range [lo, hi).
type shardSpan struct {
	lo, hi int
}

// runPlan is the partitioner's verdict for one Run.
type runPlan struct {
	sequential bool
	spans      []shardSpan
	feed       bool // some program declared FeedColors
	workers    int
}

// partition decides how to run the mesh: sequentially, or as row shards
// on a worker pool. Rows r and r+1 end up in the same shard when a
// North/South route crosses their boundary or a program on either row
// does not promise RowLocal behavior.
func (m *Mesh) partition() runPlan {
	rows := m.cfg.Rows
	workers := m.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The tracer records a single globally ordered schedule, so traced
	// runs always use the sequential reference engine.
	if workers <= 1 || m.tracer != nil || rows == 1 {
		return runPlan{sequential: true}
	}

	glue := make([]bool, rows) // glue[r]: rows r and r+1 inseparable
	copy(glue, m.glue)
	var feedUnion uint32
	for i := range m.pes {
		pe := &m.pes[i]
		pe.feedMask = 0
		pe.sealed = false
		if pe.program == nil {
			continue
		}
		if sa, ok := pe.program.(ShardAware); ok {
			if prof := sa.ShardProfile(); prof.RowLocal {
				for _, c := range prof.FeedColors {
					if c.Valid() {
						pe.feedMask |= 1 << uint(c)
					}
				}
				feedUnion |= pe.feedMask
				continue
			}
		}
		r := pe.coord.Row
		if r > 0 {
			glue[r-1] = true
		}
		if r < rows-1 {
			glue[r] = true
		}
	}
	if feedUnion&m.routeColorMask != 0 {
		// A feed color is also statically routed somewhere, so the
		// pre-pass could occupy links that row traffic shares. Nothing in
		// the CereSZ mapping does this; keep such runs sequential.
		return runPlan{sequential: true}
	}

	var spans []shardSpan
	lo := 0
	for r := 0; r < rows; r++ {
		if r == rows-1 || !glue[r] {
			spans = append(spans, shardSpan{lo: lo, hi: r + 1})
			lo = r + 1
		}
	}
	if len(spans) == 1 {
		return runPlan{sequential: true}
	}
	return runPlan{spans: spans, feed: feedUnion != 0, workers: workers}
}

// eventBudget is the sharded engines' shared MaxEvents allowance.
// Workers draw prepaid chunks from it, so the livelock guard stays cheap
// (one atomic per few thousand events) at the cost of triggering up to
// one chunk per worker late.
type eventBudget struct {
	remaining atomic.Int64
}

const budgetChunk = 4096

// runSharded executes the worker-pool path: optional column-feed
// pre-pass, then one engine per shard, then a deterministic merge of the
// shards' emissions by event key.
func (m *Mesh) runSharded(plan runPlan, pending []event) (int64, error) {
	// The pre-pass's logs (if any) come first, then each shard's in shard
	// order: the concatenation order the merge's tie-break preserves.
	var emisLogs [][]taggedEmission
	var spanLogs [][]taggedSpanEvent
	var used int64

	if plan.feed {
		// Column-distribution pre-pass: simulate only the feed-colored
		// traffic (and everything the feeder PEs do in response),
		// deferring every other delivery it generates to the shards. The
		// pre-pass runs before any worker starts, so the link and PE
		// state it writes is visible to — and never raced by — the
		// shards; feeder PEs are sealed when it finishes.
		var seeds []event
		rest := make([]event, 0, len(pending))
		for _, ev := range pending {
			if ev.kind == evDeliver && m.isFeed(ev.pe, ev.msg.Color) {
				seeds = append(seeds, ev)
			} else {
				rest = append(rest, ev)
			}
		}
		pre := engine{m: m, exactLimit: m.cfg.MaxEvents, feedPhase: true, collect: true}
		pre.q.ev = seeds
		pre.q.heapify()
		if err := pre.run(); err != nil {
			return 0, err
		}
		used = pre.processed
		emisLogs = append(emisLogs, pre.emis)
		spanLogs = append(spanLogs, pre.spanEvs)
		pending = append(rest, pre.deferred...)
	}
	m.feedEvents = used

	// Bin the pending events (host stream heads, Init-phase sends, feed
	// deferrals) to the shard owning their destination row, sizing each
	// bin exactly.
	shardOf := make([]int32, m.cfg.Rows)
	for i, sp := range plan.spans {
		for r := sp.lo; r < sp.hi; r++ {
			shardOf[r] = int32(i)
		}
	}
	binLen := make([]int, len(plan.spans))
	for _, ev := range pending {
		binLen[shardOf[int(ev.pe)/m.cfg.Cols]]++
	}
	budget := &eventBudget{}
	budget.remaining.Store(m.cfg.MaxEvents - used)
	engines := make([]engine, len(plan.spans))
	for i, sp := range plan.spans {
		engines[i] = engine{m: m, shared: budget, restricted: true, collect: true,
			idxLo: int32(sp.lo * m.cfg.Cols), idxHi: int32(sp.hi * m.cfg.Cols)}
		engines[i].q.ev = make([]event, 0, binLen[i])
	}
	for _, ev := range pending {
		s := shardOf[int(ev.pe)/m.cfg.Cols]
		engines[s].q.ev = append(engines[s].q.ev, ev)
	}

	workers := plan.workers
	if workers > len(engines) {
		workers = len(engines)
	}
	m.shards, m.workers = len(engines), workers

	var next, running, peak atomic.Int32
	var wg sync.WaitGroup
	panics := make([]any, len(engines))
	errs := make([]error, len(engines))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(engines) {
					return
				}
				// Pool-occupancy high-water mark: how many workers were
				// simultaneously busy. Host-side telemetry only — the
				// value depends on the OS scheduler, so it must never
				// flow into deterministic outputs.
				cur := running.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					e := &engines[i]
					e.q.heapify()
					errs[i] = e.run()
				}()
				running.Add(-1)
			}
		}()
	}
	wg.Wait()
	m.poolPeak = int(peak.Load())
	// Surface failures the way the sequential engine would: the first
	// panicking or erroring shard (by shard order) wins.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	m.processed = used
	m.shardEvents = make([]int64, len(engines))
	for i := range engines {
		m.processed += engines[i].processed
		m.shardEvents[i] = engines[i].processed
		emisLogs = append(emisLogs, engines[i].emis)
		spanLogs = append(spanLogs, engines[i].spanEvs)
	}
	nEmis := 0
	for _, l := range emisLogs {
		nEmis += len(l)
	}
	// Merge emissions into the order the sequential engine would have
	// produced: its emission log order is the processing order of the
	// dispatches that emitted, i.e. the (at, src, seq) order of their
	// cause events. Every engine processes its events in that order, so
	// each log is already sorted, and the merge keeps multiple emissions
	// from one handler in their in-handler order.
	m.emissions = slices.Grow(m.emissions, nEmis)
	mergeLogs(emisLogs, func(te *taggedEmission) {
		m.emissions = append(m.emissions, te.em)
		if m.emitTo != nil {
			m.emitTo(te.em)
		}
	})
	// The span log merges by the same key, for the same reason: the
	// sequential engine appends span records while processing events in
	// global (at, src, seq) order, one cause event runs entirely inside
	// one engine, and the merge keeps per-cause append order — so the
	// merged log is bit-identical to the sequential one.
	if m.spans != nil {
		mergeLogs(spanLogs, func(ts *taggedSpanEvent) {
			m.spans.events = append(m.spans.events, ts.ev)
		})
	}
	return m.Elapsed(), nil
}

// mergeLogs visits the records of logs, each already in (at, src, seq)
// order of its orderKey, in global key order. Records with equal keys
// keep their concatenation order — by log index, then by position in the
// log — which is exactly what a stable sort of the concatenated logs
// yields, at O(n log k) for k logs and without copying the records.
func mergeLogs[T any, PT interface {
	*T
	orderKey() evKey
}](logs [][]T, visit func(*T)) {
	pos := make([]int, len(logs))
	// heads is a binary min-heap of the indices of logs with records left,
	// ordered by (key of the log's next record, log index).
	heads := make([]int, 0, len(logs))
	for i, l := range logs {
		if len(l) > 0 {
			heads = append(heads, i)
		}
	}
	less := func(a, b int) bool {
		ka, kb := PT(&logs[a][pos[a]]).orderKey(), PT(&logs[b][pos[b]]).orderKey()
		if ka != kb {
			return ka.less(kb)
		}
		return a < b
	}
	down := func(i int) {
		n := len(heads)
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && less(heads[c+1], heads[c]) {
				c++
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		l := heads[0]
		visit(&logs[l][pos[l]])
		pos[l]++
		if pos[l] == len(logs[l]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
}

// isFeed reports whether a delivery of color c to PE pe belongs to the
// column-feed pre-pass.
func (m *Mesh) isFeed(pe int32, c Color) bool {
	return m.pes[pe].feedMask&(1<<uint(c)) != 0
}

// Shards reports how many row shards the last Run simulated (1 when the
// sequential reference engine ran).
func (m *Mesh) Shards() int { return m.shards }

// Workers reports how many host workers the last Run used (1 when the
// sequential reference engine ran).
func (m *Mesh) Workers() int { return m.workers }

// ShardEvents returns the per-shard-engine processed-event counts of the
// last Run (a single entry for a sequential run). The counts measure how
// balanced the row shards were; they are deterministic — a function of
// the partition, not of worker scheduling.
func (m *Mesh) ShardEvents() []int64 { return m.shardEvents }

// FeedEvents reports how many events the column-feed pre-pass processed
// in the last Run (0 when no program declared FeedColors or the run was
// sequential).
func (m *Mesh) FeedEvents() int64 { return m.feedEvents }

// PoolPeak reports the peak number of concurrently busy pool workers in
// the last Run (1 for sequential runs). Unlike every other Mesh output
// it is host-side and NOT deterministic — use it for telemetry only.
func (m *Mesh) PoolPeak() int { return m.poolPeak }

// drawQuota charges one event against the shared budget, refilling the
// engine's local prepaid chunk as needed.
func (e *engine) drawQuota() error {
	if e.quota > 0 {
		e.quota--
		return nil
	}
	if e.shared.remaining.Add(-budgetChunk) < 0 {
		return fmt.Errorf("wse: exceeded %d events; likely livelock", e.m.cfg.MaxEvents)
	}
	e.quota = budgetChunk - 1
	return nil
}
