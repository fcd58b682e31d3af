package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ceresz/internal/chunkcache"
	"ceresz/internal/core"
	"ceresz/internal/telemetry"
)

// ErrPartialForward reports an upstream failure after part of a
// non-replayable request body was already forwarded: retrying would
// silently resend a request whose first delivery may have partially
// executed, so the proxy refuses and surfaces the condition instead. The
// error text rides the 502 body; clients treat the status as retryable
// and re-send the full body themselves — an end-to-end retry the client
// owns, not a silent proxy-side one.
var ErrPartialForward = errors.New("cluster: upstream failed after request body was partially forwarded; not retried")

// failoverRetries bounds ring-walk retries per request: the next distinct
// owner, once. A second hop would usually just queue behind the same
// incident; the client's own retry (with jittered backoff) covers it.
const failoverRetries = 1

// Config tunes a Proxy.
type Config struct {
	// Backends are the cereszd base URLs the proxy shards across.
	Backends []string
	// Vnodes is the virtual-node count per healthy backend (0 = 64).
	Vnodes int
	// DegradedVnodes is the weight of a degraded backend (0 = Vnodes/4,
	// min 1): still on the ring, but shedding share.
	DegradedVnodes int
	// Workers bounds concurrently proxied requests (0 = 8×GOMAXPROCS —
	// the proxy is I/O-bound, so it runs far wider than a codec pool).
	Workers int
	// LowShare is the fraction of Workers the low-priority class
	// (X-Ceresz-Priority: low) may hold (0 = 0.5).
	LowShare float64
	// TenantRate is the per-tenant admission rate in requests/second
	// (0 = tenant limiting off); TenantBurst is the bucket capacity
	// (0 = max(1, TenantRate)); MaxTenants bounds the bucket table.
	TenantRate  float64
	TenantBurst int
	MaxTenants  int
	// Health tunes the readiness pollers.
	Health HealthConfig
	// ReplayBytes is how much request body the proxy buffers: bodies at
	// or under it are replayable, so upstream failures fail over to the
	// next ring owner transparently; larger bodies stream past the
	// buffer and failover is refused once unbuffered bytes have been
	// forwarded (0 = 4 MiB).
	ReplayBytes int
	// ChunkElems is the compress-side routing chunk when the request
	// does not pass ?chunk= — must match the backends' -chunk for
	// digest/cache-key agreement (0 = 64 Ki).
	ChunkElems int
	// BlockLen mirrors the backends' -block flag into the routing digest
	// (0 = the codec default, matching cereszd's own default).
	BlockLen int
	// RetryAfter is the hint sent with proxy-origin 429/503 (0 = 1s).
	// Backend-origin 429s pass through with the backend's own hint.
	RetryAfter time.Duration
	// RandomRoute replaces digest routing with per-request random owner
	// selection — the affinity-off baseline for benchmarks; failover
	// semantics are unchanged.
	RandomRoute bool
	// Transport issues backend requests (nil = a pooled clone of
	// http.DefaultTransport sized to Workers).
	Transport http.RoundTripper
	// Registry receives the proxy's instruments (nil = telemetry.Default).
	Registry *telemetry.Registry
	// RollupInterval / RollupWindows / Objectives / SLODegradedBurn are
	// the PR-10 fleet-health layer, unchanged on this tier: windowed
	// rollups over the proxy's registry, SLOs (ParseObjectives) over the
	// proxy's own RED instruments, degraded detail on readiness.
	RollupInterval  time.Duration
	RollupWindows   int
	Objectives      []telemetry.Objective
	SLODegradedBurn float64
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.DegradedVnodes <= 0 {
		c.DegradedVnodes = c.Vnodes / 4
		if c.DegradedVnodes < 1 {
			c.DegradedVnodes = 1
		}
	}
	if c.Workers <= 0 {
		c.Workers = 8 * runtime.GOMAXPROCS(0)
	}
	if c.LowShare <= 0 || c.LowShare > 1 {
		c.LowShare = 0.5
	}
	if c.ReplayBytes <= 0 {
		c.ReplayBytes = 4 << 20
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = 64 << 10
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	if c.Transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = c.Workers
		if t.MaxIdleConns < c.Workers {
			t.MaxIdleConns = c.Workers
		}
		t.IdleConnTimeout = 90 * time.Second
		c.Transport = t
	}
	if c.RollupInterval == 0 && len(c.Objectives) > 0 {
		c.RollupInterval = 5 * time.Second
	}
	return c
}

// Proxy endpoints mirror the backend's, so the SLO subject names and the
// client package work unchanged against either tier.
const (
	epCompress = iota
	epDecompress
	epBundle
	numEndpoints
)

var epNames = [numEndpoints]string{"compress", "decompress", "bundle"}

// epMetrics is one endpoint's proxy-tier RED set, named proxy.<ep>.* so
// rollups, SLO binding and dashboards distinguish tiers at a glance.
type epMetrics struct {
	requests  *telemetry.Counter
	failures  *telemetry.Counter
	rejected  *telemetry.Counter
	throttled *telemetry.Counter
	status2xx *telemetry.Counter
	status4xx *telemetry.Counter
	status5xx *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	latencyUS *telemetry.Histogram
}

func newEpMetrics(reg *telemetry.Registry, name string) *epMetrics {
	m := &epMetrics{
		requests:  reg.Counter("proxy." + name + ".requests"),
		failures:  reg.Counter("proxy." + name + ".failures"),
		rejected:  reg.Counter("proxy." + name + ".rejected"),
		throttled: reg.Counter("proxy." + name + ".throttled"),
		status2xx: reg.Counter("proxy." + name + ".status_2xx"),
		status4xx: reg.Counter("proxy." + name + ".status_4xx"),
		status5xx: reg.Counter("proxy." + name + ".status_5xx"),
		bytesIn:   reg.Counter("proxy." + name + ".bytes_in"),
		bytesOut:  reg.Counter("proxy." + name + ".bytes_out"),
		latencyUS: reg.Histogram("proxy." + name + ".latency_us"),
	}
	for suffix, help := range map[string]string{
		"requests":   "Requests admitted by the proxy.",
		"failures":   "Requests that exhausted every ring owner or hit a non-replayable upstream failure.",
		"rejected":   "Requests refused 429 by proxy admission (worker pool or low-priority cap).",
		"throttled":  "Requests refused 429 by per-tenant rate limiting.",
		"status_2xx": "Responses relayed with a 2xx status.",
		"status_4xx": "Responses with a 4xx status (throttles and rejections included).",
		"status_5xx": "Responses with a 5xx status.",
		"bytes_in":   "Request body bytes forwarded upstream.",
		"bytes_out":  "Response body bytes relayed downstream.",
		"latency_us": "End-to-end proxy latency in microseconds.",
	} {
		reg.Describe("proxy."+name+"."+suffix, "/v1/"+name+" via cereszproxy: "+help)
	}
	return m
}

func (m *epMetrics) observeStatus(code int) {
	switch {
	case code >= 200 && code < 300:
		m.status2xx.Add(1)
	case code >= 400 && code < 500:
		m.status4xx.Add(1)
	case code >= 500:
		m.status5xx.Add(1)
	}
}

// backend is one upstream in the proxy's fixed table.
type backend struct {
	name string   // canonical base URL (scheme://host:port, no trailing /)
	u    *url.URL // parsed once

	requests  *telemetry.Counter
	failures  *telemetry.Counter
	status2xx *telemetry.Counter
	status4xx *telemetry.Counter
	status5xx *telemetry.Counter
	latencyUS *telemetry.Histogram
}

// Proxy is the shard router. Create with New, Start the health pollers,
// mount with Handler, Close on shutdown.
type Proxy struct {
	cfg      Config
	backends []*backend
	checker  *Checker
	ring     atomic.Pointer[Ring]
	// generation counts ring rebuilds; /debug/ring reports it so tests
	// and operators see churn.
	generation atomic.Int64
	limiter    *TenantLimiter
	admit      *admitter
	ready      atomic.Bool
	draining   atomic.Bool

	hashers sync.Pool // *chunkcache.Hasher
	bufs    sync.Pool // *[]byte, ReplayBytes+1 capacity
	copyBuf sync.Pool // *[]byte, 32 KiB response relay buffers

	mEp          [numEndpoints]*epMetrics
	ringRebuilds *telemetry.Counter
	failover     *telemetry.Counter
	failoverDeny *telemetry.Counter
	midstream    *telemetry.Counter
	routableG    *telemetry.Gauge
	tenantsG     *telemetry.Gauge

	rollup *telemetry.Rollup
	slo    *telemetry.SLOEngine
}

// New builds a Proxy over cfg.Backends (at least one required; URLs are
// normalized by trimming trailing slashes). The health checker is not
// started — call Start.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	reg := cfg.Registry
	p := &Proxy{
		cfg:          cfg,
		limiter:      NewTenantLimiter(cfg.TenantRate, cfg.TenantBurst, cfg.MaxTenants),
		admit:        newAdmitter(cfg.Workers, int(float64(cfg.Workers)*cfg.LowShare)),
		ringRebuilds: reg.Counter("proxy.ring_rebuilds"),
		failover:     reg.Counter("proxy.failover"),
		failoverDeny: reg.Counter("proxy.failover_denied"),
		midstream:    reg.Counter("proxy.midstream_aborts"),
		routableG:    reg.Gauge("proxy.backends_routable"),
		tenantsG:     reg.Gauge("proxy.tenants"),
	}
	reg.Describe("proxy.ring_rebuilds", "Consistent-hash ring rebuilds (health-driven churn).")
	reg.Describe("proxy.failover", "Requests retried on the next ring owner after an upstream failure.")
	reg.Describe("proxy.failover_denied", "Upstream failures not retried because the request body was partially forwarded.")
	reg.Describe("proxy.midstream_aborts", "Client connections cut after an upstream died mid-response.")
	reg.Describe("proxy.backends_routable", "Backends currently on the ring (healthy + degraded).")
	reg.Describe("proxy.tenants", "Live per-tenant rate-limit buckets.")
	for ep := 0; ep < numEndpoints; ep++ {
		p.mEp[ep] = newEpMetrics(reg, epNames[ep])
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(name)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q is not an absolute URL", raw)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: backend %q listed twice", name)
		}
		seen[name] = true
		label := "b" + strconv.Itoa(i)
		b := &backend{
			name:      name,
			u:         u,
			requests:  reg.Counter("proxy.backend." + label + ".requests"),
			failures:  reg.Counter("proxy.backend." + label + ".failures"),
			status2xx: reg.Counter("proxy.backend." + label + ".status_2xx"),
			status4xx: reg.Counter("proxy.backend." + label + ".status_4xx"),
			status5xx: reg.Counter("proxy.backend." + label + ".status_5xx"),
			latencyUS: reg.Histogram("proxy.backend." + label + ".latency_us"),
		}
		for _, suffix := range []string{"requests", "failures", "status_2xx", "status_4xx", "status_5xx", "latency_us"} {
			reg.Describe("proxy.backend."+label+"."+suffix,
				"Backend "+name+": per-backend "+suffix+" seen by the proxy.")
		}
		p.backends = append(p.backends, b)
	}
	hc := cfg.Health
	if hc.Client == nil {
		hc.Client = &http.Client{Transport: cfg.Transport}
	}
	urls := make([]string, len(p.backends))
	for i, b := range p.backends {
		urls[i] = b.name
	}
	p.checker = newChecker(urls, hc, p.rebuild)
	p.hashers.New = func() any { return chunkcache.NewHasher() }
	p.bufs.New = func() any {
		b := make([]byte, 0, cfg.ReplayBytes+1)
		return &b
	}
	p.copyBuf.New = func() any {
		b := make([]byte, 32<<10)
		return &b
	}
	p.rebuild()
	if cfg.RollupInterval > 0 {
		p.rollup = telemetry.NewRollup(reg, telemetry.RollupConfig{
			Interval: cfg.RollupInterval,
			Windows:  cfg.RollupWindows,
		})
		if len(cfg.Objectives) > 0 {
			p.slo = telemetry.NewSLOEngine(p.rollup, cfg.Objectives, cfg.SLODegradedBurn)
		}
		p.rollup.Start()
	}
	return p, nil
}

// Start launches the health pollers (one probe round fires immediately).
func (p *Proxy) Start() { p.checker.Start() }

// Close stops the health pollers and the rollup ticker.
func (p *Proxy) Close() {
	p.checker.Stop()
	if p.rollup != nil {
		p.rollup.Stop()
	}
}

// SetReady flips start-up readiness: until true, /healthz/ready answers
// 503 {"status":"starting"} so pollers wait for the listener.
func (p *Proxy) SetReady(on bool) { p.ready.Store(on) }

// SetDraining flips drain mode: readiness answers 503 and new /v1/* work
// is refused with Retry-After while in-flight requests finish.
func (p *Proxy) SetDraining(on bool) { p.draining.Store(on) }

// Rollup returns the windowed time-series layer, nil when rollups are off.
func (p *Proxy) Rollup() *telemetry.Rollup { return p.rollup }

// SLO returns the objective engine, nil when no objectives are configured.
func (p *Proxy) SLO() *telemetry.SLOEngine { return p.slo }

// Checker exposes the health checker (tests and embedders).
func (p *Proxy) Checker() *Checker { return p.checker }

// Ring returns the current ring (atomically consistent snapshot).
func (p *Proxy) Ring() *Ring { return p.ring.Load() }

// rebuild recomputes the ring from current backend states. Healthy
// backends carry full weight, degraded ones DegradedVnodes, everything
// else leaves the ring. The swap is atomic: requests that already
// resolved an owner keep it, so churn never drops in-flight work.
func (p *Proxy) rebuild() {
	nodes := make([]Node, 0, len(p.backends))
	routable := 0
	for i, b := range p.backends {
		w := 0
		switch p.checker.State(i) {
		case StateHealthy:
			w = p.cfg.Vnodes
		case StateDegraded:
			w = p.cfg.DegradedVnodes
		}
		if w > 0 {
			routable++
		}
		nodes = append(nodes, Node{Index: i, Name: b.name, Weight: w})
	}
	p.ring.Store(BuildRing(nodes))
	p.generation.Add(1)
	p.ringRebuilds.Add(1)
	p.routableG.Set(int64(routable))
}

// Handler returns the proxy's mux: the /v1/* shard router, its own
// health probes and the debug views (/debug/ring, /debug/metrics, plus
// the PR-10 timeseries/SLO pages when configured).
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", p.serveProxy)
	mux.HandleFunc("/healthz", p.handleReady)
	mux.HandleFunc("/healthz/live", p.handleLive)
	mux.HandleFunc("/healthz/ready", p.handleReady)
	mux.HandleFunc("/debug/ring", p.handleRing)
	mux.Handle("/debug/metrics", p.cfg.Registry.MetricsHandler())
	mux.Handle("/debug/timeseries", p.timeseriesHandler())
	mux.Handle("/debug/slo", p.sloHandler())
	return mux
}

func notConfigured(what string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, what+" not configured", http.StatusNotFound)
	})
}

func (p *Proxy) timeseriesHandler() http.Handler {
	if p.rollup == nil {
		return notConfigured("rollup time series")
	}
	return p.rollup.Handler()
}

func (p *Proxy) sloHandler() http.Handler {
	if p.slo == nil {
		return notConfigured("slo objectives")
	}
	return p.slo.Handler()
}

func (p *Proxy) handleLive(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"alive"}`)
}

// handleReady is the proxy's own readiness: 503 while draining or with an
// empty ring (nothing to route to), degraded detail when some backends
// are off the ring or a proxy-tier SLO is burning, ok otherwise.
func (p *Proxy) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	ring := p.ring.Load()
	routable := len(ring.Members())
	switch {
	case p.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	case !p.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting"}`)
	case routable == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no-backends"}`)
	default:
		degraded := routable < len(p.backends)
		if p.slo != nil {
			if _, burning := p.slo.Degraded(); burning {
				degraded = true
			}
		}
		status := "ok"
		if degraded {
			status = "degraded"
		}
		_ = json.NewEncoder(w).Encode(struct {
			Status   string `json:"status"`
			Routable int    `json:"routable"`
			Total    int    `json:"total"`
		}{status, routable, len(p.backends)})
	}
}

// retryAfterSeconds renders d as a Retry-After value (ceiling, >= 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// endpointOf maps a /v1/* path to its endpoint index (-1 = unknown).
func endpointOf(path string) int {
	switch path {
	case "/v1/compress":
		return epCompress
	case "/v1/decompress":
		return epDecompress
	case "/v1/bundle":
		return epBundle
	}
	return -1
}

// serveProxy is the shard router: QoS (tenant bucket, priority
// admission), digest routing, streaming forward with bounded failover.
func (p *Proxy) serveProxy(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ep := endpointOf(r.URL.Path)
	if ep < 0 {
		http.NotFound(w, r)
		return
	}
	m := p.mEp[ep]
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		m.observeStatus(http.StatusMethodNotAllowed)
		return
	}
	if p.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(p.cfg.RetryAfter))
		http.Error(w, "proxy: draining", http.StatusServiceUnavailable)
		m.observeStatus(http.StatusServiceUnavailable)
		return
	}
	// Tenant QoS first: a throttled tenant must not consume a worker
	// slot. The Retry-After is exact — the time until the bucket accrues
	// one token — so clients back off precisely as long as needed.
	tenant := r.Header.Get("X-Ceresz-Tenant")
	if ok, wait := p.limiter.Allow(tenant, t0); !ok {
		m.throttled.Add(1)
		m.observeStatus(http.StatusTooManyRequests)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		http.Error(w, "proxy: tenant "+tenant+" rate limited, retry later", http.StatusTooManyRequests)
		return
	}
	p.tenantsG.Set(int64(p.limiter.Tenants()))
	// Priority admission over the bounded worker pool: low-priority
	// (batch) traffic may fill at most its share; interactive traffic may
	// use every slot.
	low := strings.EqualFold(r.Header.Get("X-Ceresz-Priority"), "low")
	release := p.admit.tryAdmit(low)
	if release == nil {
		m.rejected.Add(1)
		m.observeStatus(http.StatusTooManyRequests)
		w.Header().Set("Retry-After", retryAfterSeconds(p.cfg.RetryAfter))
		http.Error(w, "proxy: saturated, retry later", http.StatusTooManyRequests)
		return
	}
	defer release()
	m.requests.Add(1)

	status := p.forward(w, r, ep)
	m.observeStatus(status)
	m.latencyUS.Observe(time.Since(t0).Microseconds())
}

// prefixReader tracks whether any bytes beyond the buffered prefix were
// consumed — the replayability test for failover.
type prefixReader struct {
	r        io.Reader
	consumed atomic.Int64
}

func (pr *prefixReader) Read(b []byte) (int, error) {
	n, err := pr.r.Read(b)
	pr.consumed.Add(int64(n))
	return n, err
}

// flushWriter flushes after every write so frames stream to the client
// as they arrive from the backend instead of pooling in proxy buffers.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	n  int64
}

func (fw *flushWriter) Write(b []byte) (int, error) {
	n, err := fw.w.Write(b)
	fw.n += int64(n)
	if n > 0 {
		_ = fw.rc.Flush()
	}
	return n, err
}

// hopHeaders never cross the proxy (RFC 9110 §7.6.1; Trailer is handled
// explicitly).
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Te": true, "Transfer-Encoding": true, "Upgrade": true, "Trailer": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopHeaders[http.CanonicalHeaderKey(k)] || k == "Content-Length" {
			continue
		}
		dst[k] = append([]string(nil), vv...)
	}
}

// forward buffers the routing prefix, resolves the ring owner(s) and
// relays the request, failing over once when the body is replayable.
// It returns the status relayed (or originated) for RED accounting.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, ep int) int {
	bufp := p.bufs.Get().(*[]byte)
	defer p.bufs.Put(bufp)
	prefix, fullyBuffered, err := readPrefix(r.Body, (*bufp)[:cap(*bufp)])
	if err != nil {
		http.Error(w, "proxy: reading request body: "+err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest
	}

	key := p.routeKey(ep, r.URL.Query(), prefix)
	ring := p.ring.Load()
	var owners []int
	if p.cfg.RandomRoute {
		owners = randomOwners(ring, 1+failoverRetries)
	} else {
		owners = ring.Owners(key, 1+failoverRetries)
	}
	if len(owners) == 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(p.cfg.RetryAfter))
		http.Error(w, "proxy: no routable backends", http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable
	}

	rest := &prefixReader{r: r.Body}
	var lastErr error
	for attempt, bi := range owners {
		if attempt > 0 {
			if !fullyBuffered && rest.consumed.Load() > 0 {
				// Part of the one-shot body is gone: a retry would resend
				// a different (truncated-prefix) request. Refuse loudly.
				p.failoverDeny.Add(1)
				p.mEp[ep].failures.Add(1)
				http.Error(w, "proxy: "+ErrPartialForward.Error()+": "+lastErr.Error(), http.StatusBadGateway)
				return http.StatusBadGateway
			}
			p.failover.Add(1)
		}
		status, done := p.attempt(w, r, ep, bi, prefix, rest, fullyBuffered, &lastErr)
		if done {
			return status
		}
	}
	p.mEp[ep].failures.Add(1)
	msg := "proxy: all ring owners failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	http.Error(w, msg, http.StatusBadGateway)
	return http.StatusBadGateway
}

// attempt relays the request to backend bi. done=false means the caller
// may fail over (no response bytes have reached the client).
func (p *Proxy) attempt(w http.ResponseWriter, r *http.Request, ep, bi int, prefix []byte, rest *prefixReader, fullyBuffered bool, lastErr *error) (status int, done bool) {
	b := p.backends[bi]
	t0 := time.Now()
	b.requests.Add(1)

	var body io.Reader = bytes.NewReader(prefix)
	if !fullyBuffered {
		body = io.MultiReader(bytes.NewReader(prefix), rest)
	}
	outURL := *b.u
	outURL.Path = r.URL.Path
	outURL.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, outURL.String(), body)
	if err != nil {
		*lastErr = err
		b.failures.Add(1)
		return 0, false
	}
	copyHeaders(req.Header, r.Header)
	if fullyBuffered {
		req.ContentLength = int64(len(prefix))
	} else {
		req.ContentLength = r.ContentLength // -1 streams chunked
	}

	resp, err := p.cfg.Transport.RoundTrip(req)
	if err != nil {
		*lastErr = err
		b.failures.Add(1)
		p.checker.ReportFailure(bi, err)
		return 0, false
	}
	if resp.StatusCode >= 500 {
		// Upstream errored before streaming anything to the client; a
		// bounded drain keeps the connection reusable, then fail over.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		b.status5xx.Add(1)
		b.latencyUS.Observe(time.Since(t0).Microseconds())
		*lastErr = fmt.Errorf("backend %s answered %d: %s", b.name, resp.StatusCode, bytes.TrimSpace(msg))
		return 0, false
	}

	// 2xx/3xx/4xx relay as-is — 429s carry the backend's own Retry-After
	// through untouched, so backend backpressure reaches the client with
	// its original hint.
	p.checker.ReportSuccess(bi)
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	if len(resp.Trailer) > 0 {
		names := make([]string, 0, len(resp.Trailer))
		for k := range resp.Trailer {
			names = append(names, k)
		}
		w.Header().Set("Trailer", strings.Join(names, ", "))
	}
	w.WriteHeader(resp.StatusCode)

	fw := &flushWriter{w: w, rc: http.NewResponseController(w)}
	cbp := p.copyBuf.Get().(*[]byte)
	_, cerr := io.CopyBuffer(fw, resp.Body, *cbp)
	p.copyBuf.Put(cbp)
	p.mEp[ep].bytesIn.Add(int64(len(prefix)) + rest.consumed.Load())
	p.mEp[ep].bytesOut.Add(fw.n)
	switch {
	case resp.StatusCode < 300:
		b.status2xx.Add(1)
	case resp.StatusCode < 500:
		b.status4xx.Add(1)
	}
	b.latencyUS.Observe(time.Since(t0).Microseconds())
	if cerr != nil {
		// The upstream died mid-response with bytes already relayed; the
		// client must see a broken transfer, not a silently truncated 200.
		p.midstream.Add(1)
		p.checker.ReportFailure(bi, cerr)
		panic(http.ErrAbortHandler)
	}
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			w.Header().Set(k, v)
		}
	}
	return resp.StatusCode, true
}

// readPrefix fills buf from r. fullyBuffered reports that the body ended
// within the buffer — the whole request is replayable from prefix alone.
// (buf is ReplayBytes+1 long, so a full buffer means "more is coming".)
func readPrefix(r io.Reader, buf []byte) (prefix []byte, fullyBuffered bool, err error) {
	n, err := io.ReadFull(r, buf)
	switch err {
	case nil:
		return buf[:n], false, nil
	case io.EOF, io.ErrUnexpectedEOF:
		return buf[:n], true, nil
	default:
		return nil, false, err
	}
}

// routeKey derives the routing digest for one request. Compress and
// decompress requests hash their first chunk under the exact
// internal/chunkcache key layout the backends address entries with, so a
// chunk's route and its cache key agree and repeats land on the node
// already holding them. Requests whose first chunk the backend would
// never key (it will 400 them, or there is no first chunk) and bundles
// hash the raw prefix under a proxy-private namespace — still
// deterministic, just without cache affinity.
func (p *Proxy) routeKey(ep int, q url.Values, prefix []byte) chunkcache.Key {
	h := p.hashers.Get().(*chunkcache.Hasher)
	defer p.hashers.Put(h)
	switch ep {
	case epCompress:
		if pre, chunkElems, elemSize, ok := p.compressPreamble(h, q); ok {
			// The backend keys a non-empty first chunk of whole elements.
			// (Compared by division: a hostile ?chunk= overflows the
			// product.)
			n := len(prefix)
			if chunkElems <= n/elemSize {
				n = chunkElems * elemSize
			}
			if n > 0 && n%elemSize == 0 {
				return h.Key(pre, prefix[:n])
			}
		}
	case epDecompress:
		wantF64, okElem := false, true
		switch q.Get("elem") {
		case "", "f32":
		case "f64":
			wantF64 = true
		default:
			okElem = false
		}
		// The backend keys a frame only once its stream header parses.
		if payload, ok := firstFramePayload(prefix); ok && okElem {
			if _, err := core.ParseHeader(payload); err == nil {
				return h.Key(chunkcache.AppendDecompressPreamble(h.Preamble(), wantF64), payload)
			}
		}
	}
	// Fallback namespace 0: never used by the cache, so a fallback digest
	// can't collide with an affinity digest for different bytes.
	pre := append(h.Preamble(), chunkcache.KeyVersion, 0, byte(ep))
	return h.Key(pre, prefix)
}

// compressPreamble mirrors the backend's compress-side cache-key
// preamble from the request's query parameters, with the chunk length in
// elements and the element size. ok=false when the parameters would fail
// the backend's own validation.
func (p *Proxy) compressPreamble(h *chunkcache.Hasher, q url.Values) (pre []byte, chunkElems, elemSize int, ok bool) {
	eps, err := strconv.ParseFloat(q.Get("eps"), 64)
	if err != nil || !(eps > 0) {
		return nil, 0, 0, false
	}
	abs := true
	switch q.Get("mode") {
	case "", "abs":
	case "rel":
		abs = false
	default:
		return nil, 0, 0, false
	}
	elem := byte(0)
	elemSize = 4
	switch q.Get("elem") {
	case "", "f32":
	case "f64":
		elem, elemSize = 1, 8
	default:
		return nil, 0, 0, false
	}
	chunkElems = p.cfg.ChunkElems
	if cs := q.Get("chunk"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 1 {
			return nil, 0, 0, false
		}
		chunkElems = n
	}
	blockLen := p.cfg.BlockLen
	if bs := q.Get("block"); bs != "" {
		n, err := strconv.Atoi(bs)
		if err != nil || n < 8 || n%8 != 0 {
			return nil, 0, 0, false
		}
		blockLen = n
	}
	pre = chunkcache.AppendCompressPreamble(h.Preamble(), elem, abs, eps, blockLen)
	return pre, chunkElems, elemSize, true
}

// firstFramePayload extracts the first CSZF frame's payload from a
// framed-body prefix: 4-byte magic, u32 little-endian payload length,
// payload. ok=false when the prefix holds no complete frame.
func firstFramePayload(prefix []byte) ([]byte, bool) {
	const header = 8
	if len(prefix) < header || string(prefix[:4]) != "CSZF" {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(prefix[4:8]))
	if n <= 0 || header+n > len(prefix) {
		return nil, false
	}
	return prefix[header : header+n], true
}

// randomOwners picks up to n distinct ring members uniformly — the
// affinity-off baseline (RandomRoute).
func randomOwners(r *Ring, n int) []int {
	members := r.Members()
	if len(members) == 0 {
		return nil
	}
	if n > len(members) {
		n = len(members)
	}
	out := make([]int, len(members))
	copy(out, members)
	// Partial Fisher-Yates over the member list.
	for i := 0; i < n; i++ {
		j := i + rand.IntN(len(out)-i)
		out[i], out[j] = out[j], out[i]
	}
	return out[:n]
}
