package main

import (
	"bufio"
	"os"
	"sort"
	"sync"
	"time"

	"ceresz/internal/telemetry"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program: around a public call, around a wrapped http.Handler, or
// synthesized from a Server-Timing stage duration.
type span struct {
	id, parent int
	trace      string // W3C trace-id linking one request's spans; "" outside serving
	layer      string // module name: client, cluster, server, core, wse, ...
	name       string
	track      int // Perfetto thread id within the layer
	start, end time.Time
	// accumulated marks a span synthesized from a per-request stage total:
	// its duration is exact, its placement inside the parent is not.
	accumulated bool
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps every span in memory until the run ends. Safe for
// concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []*span
	t0    time.Time
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records sp, assigning its id, and returns the id.
func (l *spanLog) add(sp *span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	sp.id = len(l.spans) + 1
	l.spans = append(l.spans, sp)
	return sp.id
}

// children indexes spans by parent id.
func children(spans []*span) map[int][]*span {
	out := make(map[int][]*span)
	for _, s := range spans {
		if s.parent != 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// selfTime is s's duration minus the part of its interval that its
// children cover (overlapping children count once, parts of a child
// outside s count not at all).
func selfTime(s *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return s.dur() - covered
}

// layerPIDs fixes one Perfetto process per layer, ordered top-down; a
// backend's stages share its track so they nest under its spans.
var layerPIDs = map[string]int{"client": 1, "cluster": 2, "server": 3, "stage": 3, "core": 4, "wse": 5}

// writeChromeTrace writes every span as a Perfetto-loadable Chrome
// trace-event file: one process per layer, one track per client,
// backend or worker, complete slices carrying their trace id and self
// time.
func (l *spanLog) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tw := telemetry.NewChromeTraceWriter(bw)
	l.mu.Lock()
	spans := append([]*span(nil), l.spans...)
	l.mu.Unlock()
	kids := children(spans)
	named := map[[2]int]bool{}
	for _, s := range spans {
		pid := layerPIDs[s.layer]
		if k := [2]int{pid, s.track}; !named[k] {
			named[k] = true
			tw.Emit(telemetry.ThreadName(pid, s.track, s.layer))
		}
		args := map[string]any{"self_us": selfTime(s, kids[s.id]).Microseconds()}
		if s.trace != "" {
			args["trace_id"] = s.trace
		}
		if s.accumulated {
			args["placement"] = "accumulated stage total; position inside the parent is nominal"
		}
		tw.Emit(telemetry.ChromeEvent{
			Name: s.layer + "." + s.name, Cat: s.layer, Ph: "X",
			Ts:  s.start.Sub(l.t0).Microseconds(),
			Dur: s.dur().Microseconds(),
			Pid: pid, Tid: s.track, Args: args,
		})
	}
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
