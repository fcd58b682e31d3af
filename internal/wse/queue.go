package wse

// Event-queue machinery for the discrete-event engine.
//
// Events are ordered by the key (at, src, seq): simulated cycle first,
// then the origin PE's linear index (host injections use origin -1, which
// orders them before any fabric event in the same cycle), then the
// origin's own push counter. Each origin stamps its pushes with a
// strictly increasing seq, so the key is a total order computed from
// per-PE behavior alone — it does not depend on how the run is
// partitioned, which is what lets the row-sharded engine reproduce the
// sequential engine's results bit for bit (see DESIGN.md, "Simulator
// engine").

type evKind uint8

const (
	evDeliver evKind = iota
	evReady
)

// event is one scheduled occurrence, held by value in the heap.
type event struct {
	at  int64
	src int32 // origin PE linear index; -1 for host injections
	// ingress is 1 + the index of the host stream (Mesh.ingress) whose
	// next message this injection's delivery schedules; 0 for every
	// other event. It fills padding, so events stay the same size.
	ingress int32
	seq     int64 // origin's push counter
	kind    evKind
	pe      int32 // destination PE linear index
	msg     Message
}

// before orders events by (at, src, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

// evKey is the (at, src, seq) ordering key on its own: the tag the
// sharded engine's per-engine logs carry for the post-run merge.
type evKey struct {
	at  int64
	src int32
	seq int64
}

// less orders keys like event.before (which compares the fields in place,
// on the heap's hot path).
func (k evKey) less(o evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.src != o.src {
		return k.src < o.src
	}
	return k.seq < o.seq
}

// eventHeap is a 4-ary min-heap of value-typed events. Unlike
// container/heap, push and pop never box (heap.Push takes `any`, which
// allocates on every call — the seed engine's dominant allocation), and
// the 4-wide fan-out halves the tree depth, trading a few extra
// comparisons per level for fewer cache-missing element moves.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		i = p
	}
	h.ev[i] = e
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = event{} // drop the payload reference
	h.ev = h.ev[:n]
	if n > 0 {
		h.siftDown(last, 0, n)
	}
	return top
}

// siftDown places e at index i, moving smaller children up as it goes.
func (h *eventHeap) siftDown(e event, i, n int) {
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.ev[j].before(&h.ev[min]) {
				min = j
			}
		}
		if !h.ev[min].before(&e) {
			break
		}
		h.ev[i] = h.ev[min]
		i = min
	}
	h.ev[i] = e
}

// heapify establishes the heap property over the whole slice in O(n) —
// used when an engine's initial event set is bulk-loaded (injections and
// Init-phase sends binned to a shard) rather than pushed one by one.
func (h *eventHeap) heapify() {
	n := len(h.ev)
	for i := (n - 2) >> 2; i >= 0; i-- {
		h.siftDown(h.ev[i], i, n)
	}
}
