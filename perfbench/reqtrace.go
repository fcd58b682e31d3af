package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ceresz/client"
)

// Request tracing for the serving workloads, entirely from outside the
// program: the client call is timed around client/'s public methods, the
// proxy and backends inside wrapped http.Handlers, and the backend's
// stages come from the Server-Timing trailer it already sends. The spans
// of one request are linked by the traceparent client/ already
// propagates, which the proxy forwards unchanged.

var stageNames = [...]string{"admit", "worker", "read", "cache", "codec", "write"}

// opTrace collects one traced client call's spans.
type opTrace struct {
	mu       sync.Mutex
	endpoint string
	trace    string
	client   *span
	proxy    *span
	server   *span
	stages   [len(stageNames)]time.Duration
	stagesOK bool
}

type opKey struct{}

// reqTracer links handler spans to the client call that caused them.
type reqTracer struct {
	log     *spanLog
	mu      sync.Mutex
	byTrace map[string]*opTrace
	done    []*opTrace
}

func newReqTracer(log *spanLog) *reqTracer {
	return &reqTracer{log: log, byTrace: map[string]*opTrace{}}
}

// traceIDOf extracts the trace-id field of a W3C traceparent.
func traceIDOf(tp string) string {
	parts := strings.Split(tp, "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}

func (t *reqTracer) lookup(tid string) *opTrace {
	if tid == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byTrace[tid]
}

// tracingTransport registers the trace id of each traced call's request.
type tracingTransport struct {
	base http.RoundTripper
	tr   *reqTracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op, ok := req.Context().Value(opKey{}).(*opTrace); ok {
		tid := traceIDOf(req.Header.Get("Traceparent"))
		op.mu.Lock()
		op.trace = tid
		op.mu.Unlock()
		tt.tr.mu.Lock()
		tt.tr.byTrace[tid] = op
		tt.tr.mu.Unlock()
	}
	return tt.base.RoundTrip(req)
}

// wrap times h for traced requests. A backend's Server-Timing value is
// set on the header map before h returns, so it is read here.
func (t *reqTracer) wrap(layer string, track int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := t.lookup(traceIDOf(r.Header.Get("Traceparent")))
		if op == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := &span{layer: layer, name: strings.TrimPrefix(r.URL.Path, "/v1/"), track: track, start: time.Now()}
		h.ServeHTTP(w, r)
		sp.end = time.Now()
		op.mu.Lock()
		defer op.mu.Unlock()
		if layer == "cluster" {
			op.proxy = sp
			return
		}
		op.server = sp
		op.stages, op.stagesOK = parseStages(w.Header().Get("Server-Timing"))
	})
}

// parseStages reads the per-stage durations of a Server-Timing value
// ("admit;dur=0.012, worker;dur=0.000, ..., total;dur=1.234", in ms).
func parseStages(h string) (out [len(stageNames)]time.Duration, ok bool) {
	found := 0
	for _, entry := range strings.Split(h, ",") {
		name, rest, _ := strings.Cut(strings.TrimSpace(entry), ";")
		v, isDur := strings.CutPrefix(strings.TrimSpace(rest), "dur=")
		if !isDur {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return out, false
		}
		for i, s := range stageNames {
			if s == name {
				out[i] = time.Duration(f * float64(time.Millisecond))
				found++
			}
		}
	}
	return out, found == len(stageNames)
}

// call runs fn as one client-layer span of op. With a nil op the call is
// untraced and t may be nil.
func (t *reqTracer) call(ctx context.Context, op *opTrace, endpoint string, track int, fn func(context.Context) error) error {
	if op == nil {
		return fn(ctx)
	}
	op.endpoint = endpoint
	sp := &span{layer: "client", name: endpoint, track: track, start: time.Now()}
	err := fn(context.WithValue(ctx, opKey{}, op))
	sp.end = time.Now()
	op.mu.Lock()
	op.client = sp
	op.mu.Unlock()
	t.finish(op)
	return err
}

// roundTrip compresses p through the stack and decompresses the result,
// checking the reconstruction against ε, and times each call. With ops
// set, tr records the two calls as client spans on the given track.
func roundTrip(ctx context.Context, cl *client.Client, sp *speedProbe, p payload, tr *reqTracer, track int, ops [2]*opTrace) (comp []byte, tc, td opTime, err error) {
	tc, err = sp.timeOp(func() error {
		return tr.call(ctx, ops[0], "compress", track, func(ctx context.Context) error {
			var err error
			comp, err = cl.Compress(ctx, p.data, client.ABS(p.eps))
			return err
		})
	})
	if err != nil {
		return nil, tc, td, fmt.Errorf("compress: %w", err)
	}
	var rec []float32
	td, err = sp.timeOp(func() error {
		return tr.call(ctx, ops[1], "decompress", track, func(ctx context.Context) error {
			var err error
			rec, err = cl.Decompress(ctx, comp)
			return err
		})
	})
	if err != nil {
		return comp, tc, td, fmt.Errorf("decompress: %w", err)
	}
	if err := withinEps(p.data, rec, p.eps); err != nil {
		return comp, tc, td, fmt.Errorf("%w: %v", errCheck, err)
	}
	return comp, tc, td, nil
}

// finish files op's spans into the log, parent-linked client ⊇ proxy ⊇
// server ⊇ stages, and retires its trace id.
func (t *reqTracer) finish(op *opTrace) {
	op.mu.Lock()
	defer op.mu.Unlock()
	t.mu.Lock()
	delete(t.byTrace, op.trace)
	t.done = append(t.done, op)
	t.mu.Unlock()
	parent := t.log.add(withTrace(op.client, op.trace, 0))
	if op.proxy != nil {
		parent = t.log.add(withTrace(op.proxy, op.trace, parent))
	}
	if op.server == nil {
		return
	}
	parent = t.log.add(withTrace(op.server, op.trace, parent))
	at := op.server.start
	for i, d := range op.stages {
		if d <= 0 {
			continue
		}
		t.log.add(&span{
			parent: parent, trace: op.trace, layer: "stage", name: stageNames[i],
			track: op.server.track, start: at, end: at.Add(d), accumulated: true,
		})
		at = at.Add(d)
	}
}

func withTrace(s *span, trace string, parent int) *span {
	s.trace, s.parent = trace, parent
	return s
}

// level is one row of the reconciliation table: a layer's mean span and
// the residual it leaves after its children.
type level struct {
	name              string
	meanMs            float64
	residMs, minResid float64
}

// ledger computes the serving per-layer metrics from the traced calls and
// renders the reconciliation table client ⊇ proxy ⊇ server ⊇ stages. A
// level's residual is its span minus its child's (the stage sum under the
// server): its self time, since each child runs inside its parent. It is
// computed unclipped so that a child outlasting its parent shows.
func (t *reqTracer) ledger(rc *runCtx, proxied bool) {
	t.mu.Lock()
	ops := append([]*opTrace(nil), t.done...)
	t.mu.Unlock()
	var proxySelf []float64
	for _, ep := range []string{"compress", "decompress"} {
		var client, clientSelf, prox, serv, servResid, stageSum []float64
		var stages [len(stageNames)][]float64
		for _, op := range ops {
			if op.endpoint != ep || op.client == nil || op.server == nil || !op.stagesOK || (proxied && op.proxy == nil) {
				continue
			}
			inner := op.server
			if proxied {
				inner = op.proxy
				p := ms(op.proxy.dur())
				prox = append(prox, p)
				proxySelf = append(proxySelf, p-ms(op.server.dur()))
			}
			client = append(client, ms(op.client.dur()))
			clientSelf = append(clientSelf, ms(op.client.dur())-ms(inner.dur()))
			var ssum float64
			for i, d := range op.stages {
				stages[i] = append(stages[i], ms(d))
				ssum += ms(d)
			}
			serv = append(serv, ms(op.server.dur()))
			stageSum = append(stageSum, ssum)
			servResid = append(servResid, ms(op.server.dur())-ssum)
		}
		if len(client) == 0 {
			rc.fail(fmt.Errorf("traced run recorded no complete %s call", ep))
			continue
		}
		rc.put("client."+ep+"_self_ms", mean(clientSelf))
		rc.put("server."+ep+".handler_ms", mean(serv))
		for i, s := range stageNames {
			if s == "read" || s == "cache" || s == "codec" || s == "write" {
				rc.put("server."+ep+"."+s+"_ms", mean(stages[i]))
			}
		}
		rc.put("server."+ep+".residual_ms", mean(servResid))

		rows := []level{{name: "client", meanMs: mean(client), residMs: mean(clientSelf), minResid: minOf(clientSelf)}}
		if proxied {
			rows = append(rows, level{name: "proxy", meanMs: mean(prox), residMs: mean(proxySelf), minResid: minOf(proxySelf)})
		}
		rows = append(rows, level{name: "server", meanMs: mean(serv), residMs: mean(servResid), minResid: minOf(servResid)})
		rc.note(fmt.Sprintf("reconciliation %s (%d traced calls, ms):", ep, len(client)))
		for _, r := range rows {
			rc.note(fmt.Sprintf("  %-7s span %9.3f  residual %8.3f  (min %8.3f)", r.name, r.meanMs, r.residMs, r.minResid))
		}
		for i, s := range stageNames {
			rc.note(fmt.Sprintf("    stage %-7s %9.3f", s, mean(stages[i])))
		}
		rc.note(fmt.Sprintf("    stage sum     %9.3f", mean(stageSum)))
		// Trailer stages are rounded to 1 µs each; a residual below
		// minus that resolution means a child outlasted its parent.
		resolution := float64(len(stageNames)) * 1e-3
		for _, r := range rows {
			if r.minResid < -resolution {
				rc.fail(fmt.Errorf("%s %s residual %.3f ms is negative beyond timer resolution", ep, r.name, r.minResid))
			}
		}
	}
	if proxied {
		rc.put("cluster.self_ms", mean(proxySelf))
	}
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}
