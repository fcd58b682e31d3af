package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ceresz"
	"ceresz/client"
	"ceresz/internal/cluster"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// servingSpec shapes one serving workload.
type servingSpec struct {
	backends int
	proxy    bool
	hotShare float64 // share of requests resending a hot-set body
}

// Deployment settings: cereszd and cereszproxy defaults plus a chunk-cache
// budget that holds a hot set's compress and decompress entries per
// backend with room for the unique traffic churning past it.
const (
	cacheBytes = 96 << 20
	// clientCount is one: a single closed-loop client, so that the process
	// CPU time spent during a call is that call's cost end to end
	// (client, proxy, server, codec and the GC work it causes).
	clientCount = 1
	setupReps   = 5
)

// stack is one running serving deployment on loopback listeners.
type stack struct {
	servers   []*server.Server
	regs      []*telemetry.Registry
	listeners []*httptest.Server
	proxy     *cluster.Proxy
	proxyReg  *telemetry.Registry
	proxyLn   *httptest.Server
	upstream  *http.Transport // the proxy's, to the backends
	transport *http.Transport // the clients'
	cl        *client.Client
}

func startStack(ctx context.Context, spec servingSpec, tr *reqTracer) (*stack, error) {
	st := &stack{}
	for i := 0; i < spec.backends; i++ {
		reg := telemetry.NewRegistry()
		srv := server.New(server.Config{
			CacheBytes:     cacheBytes,
			Registry:       reg,
			RollupInterval: 5 * time.Second, // cereszd's -rollup-interval default
		})
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrap("server", i, h)
		}
		st.servers = append(st.servers, srv)
		st.regs = append(st.regs, reg)
		st.listeners = append(st.listeners, httptest.NewServer(h))
	}
	target := st.listeners[0].URL
	if spec.proxy {
		addrs := map[string]string{}
		names := backendNames(spec.backends)
		for i, n := range names {
			addrs[strings.TrimPrefix(n, "http://")+":80"] = st.listeners[i].Listener.Addr().String()
		}
		// cereszproxy's default upstream transport, dialing the fixed
		// backend names to their listeners.
		workers := 8 * runtime.GOMAXPROCS(0)
		up := http.DefaultTransport.(*http.Transport).Clone()
		st.upstream = up
		up.MaxIdleConnsPerHost, up.MaxIdleConns = workers, max(up.MaxIdleConns, workers)
		up.IdleConnTimeout = 90 * time.Second
		var d net.Dialer
		up.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		}
		st.proxyReg = telemetry.NewRegistry()
		p, err := cluster.New(cluster.Config{
			Backends:       names,
			Transport:      up,
			Registry:       st.proxyReg,
			RollupInterval: 5 * time.Second, // cereszproxy's default
		})
		if err != nil {
			st.close()
			return nil, err
		}
		p.Start()
		st.proxy = p
		var h http.Handler = p.Handler()
		if tr != nil {
			h = tr.wrap("cluster", 0, h)
		}
		st.proxyLn = httptest.NewServer(h)
		p.SetReady(true) // cereszproxy flips readiness once it listens
		target = st.proxyLn.URL
	}
	st.transport = http.DefaultTransport.(*http.Transport).Clone()
	st.transport.MaxIdleConnsPerHost = 64 // client/'s pooled default
	st.transport.IdleConnTimeout = 90 * time.Second
	var rt http.RoundTripper = st.transport
	if tr != nil {
		rt = &tracingTransport{base: rt, tr: tr}
	}
	// No retries: a refused or failed request is a failed operation.
	st.cl = client.New(client.Config{BaseURL: target, HTTPClient: &http.Client{Transport: rt}, MaxRetries: -1})
	if err := st.waitReady(ctx, spec.backends); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitReady polls readiness until the entry point serves and, behind a
// proxy, every backend is on the ring.
func (st *stack) waitReady(ctx context.Context, backends int) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		r, err := st.cl.Ready(ctx)
		if err == nil && r.Status == "ok" && (st.proxy == nil || len(st.proxy.Ring().Members()) == backends) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serving stack not ready: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (st *stack) close() {
	if st.proxyLn != nil {
		st.proxyLn.Close()
	}
	if st.proxy != nil {
		st.proxy.Close()
	}
	for _, l := range st.listeners {
		l.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for _, t := range []*http.Transport{st.transport, st.upstream} {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}

// counters sums run-delta counters over the stack's registries.
type counters map[string]int64

func (st *stack) snapshot() counters {
	out := counters{}
	for _, r := range st.regs {
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	if st.proxyReg != nil {
		for k, v := range st.proxyReg.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

func (c counters) delta(before counters, name string) float64 {
	return float64(c[name] - before[name])
}

// withinEps reports the first element of got farther than eps from want.
func withinEps[T float32 | float64](want, got []T, eps float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("reconstruction has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(float64(got[i]) - float64(want[i])); !(d <= eps) {
			return fmt.Errorf("element %d off by %g > ε=%g", i, d, eps)
		}
	}
	return nil
}

// streamWriterBytes is the library's framed stream for p: what cereszd
// must return for the same body, bound and chunking.
func streamWriterBytes(p payload) ([]byte, error) {
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, ceresz.ABS(p.eps), ceresz.Options{Workers: 1})
	for off := 0; off < len(p.data); off += chunkElems {
		if _, err := sw.WriteChunk(p.data[off:min(off+chunkElems, len(p.data))]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), sw.Close()
}

// errCheck marks a correctness failure, as opposed to a failed request.
var errCheck = errors.New("correctness check failed")

// warmUp brings a fresh stack to steady state: the first request must
// match the library's StreamWriter bytes, and a fleet's hot set is loaded
// into the backends' caches. It returns each hot body's stream.
func warmUp(ctx context.Context, st *stack, first payload, firstRef []byte, hot []payload) ([][]byte, error) {
	comp, _, _, err := roundTrip(ctx, st.cl, nil, first, nil, 0, [2]*opTrace{})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(comp, firstRef) {
		return nil, fmt.Errorf("%w: first warm-up stream differs from StreamWriter output (%d vs %d bytes)", errCheck, len(comp), len(firstRef))
	}
	refs := make([][]byte, len(hot))
	for i, p := range hot {
		if refs[i], _, _, err = roundTrip(ctx, st.cl, nil, p, nil, 0, [2]*opTrace{}); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// runServing runs serve-unique or fleet-repeat.
func runServing(rc *runCtx, spec servingSpec) error {
	ctx := context.Background()
	gen, err := newPayloadGen(rc.seed, clientCount+1)
	if err != nil {
		return err
	}
	warm := clientCount // the warm-up stream
	firstBuf := make([]float32, payloadElems)
	first, err := gen.next(warm, firstBuf)
	if err != nil {
		return err
	}
	firstRef, err := streamWriterBytes(first)
	if err != nil {
		return err
	}
	var hot []payload
	if spec.hotShare > 0 {
		if hot, err = gen.hotSet(rc.seed); err != nil {
			return err
		}
		distinct, owners := hotSetOwners(hot, spec.backends)
		reached := map[int]bool{}
		for _, o := range owners {
			reached[o] = true
		}
		if distinct != hotSetSize || len(reached) != spec.backends {
			return fmt.Errorf("%w: hot set has %d routing digests reaching %d of %d backends",
				errCheck, distinct, len(reached), spec.backends)
		}
	}
	rc.refs = append(rc.refs, refInput{data: first.data, eps: first.eps})

	var tr *reqTracer
	if rc.trace {
		tr = newReqTracer(rc.spans)
	}
	var st *stack
	var hotRefs [][]byte
	var setups []opTime
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		t, err := rc.speed.timeOp(func() (err error) {
			if st, err = startStack(ctx, spec, tr); err != nil {
				return err
			}
			if hotRefs, err = warmUp(ctx, st, first, firstRef, hot); err != nil {
				st.close()
			}
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, t)
	}
	defer st.close()

	var comp, decomp []opTime
	var cTr, cUn []float64
	var compBytes, rounds float64
	var firstErr error
	hotRounds := 0
	before := st.snapshot()
	ph := startPhase()
	deadline := ph.start.Add(rc.seconds)
	// Every block of ten requests holds exactly (1-hotShare)·10 unique
	// bodies at seeded positions, so every run sends the same mix.
	pick := rand.New(rand.NewSource(rc.seed * 31))
	uniques := int(math.Round((1 - spec.hotShare) * 10))
	var unique [10]bool
	buf := make([]float32, payloadElems)
	for i := 0; time.Now().Before(deadline); i++ {
		var p payload
		if i%10 == 0 {
			for j, k := range pick.Perm(10) {
				unique[k] = j < uniques
			}
		}
		if !unique[i%10] {
			p = hot[pick.Intn(len(hot))]
		} else if p, err = gen.next(0, buf); err != nil {
			ph.stop()
			return err
		}
		traced := tr != nil && i%2 == 1
		var ops [2]*opTrace
		if traced {
			ops = [2]*opTrace{{}, {}}
		}
		c, tc, td, err := roundTrip(ctx, st.cl, rc.speed, p, tr, 0, ops)
		if err == nil && p.hot >= 0 && !bytes.Equal(c, hotRefs[p.hot]) {
			err = fmt.Errorf("%w: hot body %d compressed to different bytes", errCheck, p.hot)
		}
		rc.attempted += 2
		if c == nil {
			rc.attempted-- // compress failed: decompress never ran
		}
		if err != nil {
			rc.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rounds++
		compBytes += float64(len(c))
		if p.hot >= 0 {
			hotRounds++
		}
		rt := ms(tc.wall + td.wall)
		if traced {
			cTr = append(cTr, rt)
			continue
		}
		cUn = append(cUn, rt)
		comp, decomp = append(comp, tc), append(decomp, td)
	}
	ph.stop()
	after := st.snapshot()
	if errors.Is(firstErr, errCheck) {
		rc.fail(firstErr)
	} else if firstErr != nil {
		rc.note(fmt.Sprintf("first failed operation: %v", firstErr))
	}
	if len(comp) == 0 {
		return fmt.Errorf("no round trip completed")
	}

	raw := float64(4 * payloadElems)
	if err := rc.putOps(setups, comp, decomp, float64(len(comp))*raw); err != nil {
		return err
	}
	rc.put("peak_heap_mib", ph.peakHeapMiB)
	rc.phaseProc(ph, rounds)
	rc.put("ratio", rounds*raw/compBytes)

	if !rc.trace {
		return nil
	}
	rc.put("telemetry.trace_overhead_pct", (mean(cTr)/mean(cUn)-1)*100)
	lookups := after.delta(before, "cache.hits") + after.delta(before, "cache.misses") + after.delta(before, "cache.coalesced")
	if lookups > 0 {
		rc.put("chunkcache.hit_ratio", (after.delta(before, "cache.hits")+after.delta(before, "cache.coalesced"))/lookups)
	}
	rc.put("chunkcache.evictions", after.delta(before, "cache.evictions"))
	rc.put("chunkcache.coalesced", after.delta(before, "cache.coalesced"))
	rc.put("server.rejected_429", after.delta(before, "server.compress.rejected")+after.delta(before, "server.decompress.rejected"))
	if spec.proxy {
		// A hot body resent after warm-up should hit on every chunk in
		// both directions when routing keeps it on its owner.
		ideal := float64(hotRounds * 2 * payloadElems / chunkElems)
		if ideal > 0 {
			rc.put("cluster.affinity_hit_ratio", (after.delta(before, "cache.hits")+after.delta(before, "cache.coalesced"))/ideal)
		}
		var total, top float64
		for b := 0; b < spec.backends; b++ {
			v := after.delta(before, "proxy.backend.b"+strconv.Itoa(b)+".requests")
			total += v
			top = math.Max(top, v)
		}
		if total > 0 {
			rc.put("cluster.backend_share_max", top/total)
		}
		rc.put("cluster.failovers", after.delta(before, "proxy.failover"))
		rc.put("cluster.ring_rebuilds", after.delta(before, "proxy.ring_rebuilds"))
	}
	tr.ledger(rc, spec.proxy)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
