package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug.test_requests").Add(3)
	r.Histogram("debug.test_latency").Observe(12)

	srv := httptest.NewServer(DebugMux(r, "debugmux-test"))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/metrics"); code != 200 ||
		!strings.Contains(body, "ceresz_debug_test_requests 3") {
		t.Fatalf("/debug/metrics: code %d, body %q", code, body)
	}
	if code, body := get("/debug/telemetry"); code != 200 ||
		!strings.Contains(body, "debug.test_latency") {
		t.Fatalf("/debug/telemetry: code %d, body %.200q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 ||
		!strings.Contains(body, "debugmux-test") {
		t.Fatalf("/debug/vars: code %d, body %.200q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}

// nameSeq numbers process-global names (expvar names, Default registry
// instruments) so tests that claim one stay correct when re-run in the
// same process (-count=N).
var nameSeq atomic.Int64

func uniqueName(base string) string { return fmt.Sprintf("%s-%d", base, nameSeq.Add(1)) }

func TestPublishExpvarOnce(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	name := uniqueName("publish-once-test")
	if err := a.PublishExpvarOnce(name); err != nil {
		t.Fatal(err)
	}
	if err := a.PublishExpvarOnce(name); err != nil {
		t.Fatalf("republish of same registry: %v", err)
	}
	if err := b.PublishExpvarOnce(name); err == nil {
		t.Fatal("different registry under a taken name did not error")
	}
}
