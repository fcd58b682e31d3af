package cluster

import (
	"bytes"
	"errors"
	"math"
	"net/url"
	"strconv"
	"testing"

	"ceresz"
	"ceresz/internal/chunkcache"
)

// cereszd's defaults, which the backend model below runs with.
const (
	backendChunkElems    = 64 << 10
	backendMaxChunkElems = 4 << 20
	backendMaxFrameBytes = 64 << 20
)

// backendVerdict is what a default-configured cereszd does with a
// request's first chunk (compress) or frame (decompress).
type backendVerdict int

const (
	// backendKeys: the backend derives a chunk-cache key for it.
	backendKeys backendVerdict = iota
	// backendRejects: the request fails the backend's format validation,
	// or has no first chunk to key.
	backendRejects
	// backendOverCap: the request is well formed but exceeds one of the
	// backend's deployment caps (-max-chunk-elems, -max-frame-bytes),
	// which the proxy does not know.
	backendOverCap
)

// backendKey mirrors how cereszd keys a request: for compress,
// parseCompressParams, then codec.readChunk and cacheKeyCompress on the
// first chunk; for decompress, handleDecompress's elem check, then
// StreamReader.NextRaw (the backend's own frame reader, with its limits)
// and cacheKeyDecompress on the first frame.
func backendKey(h *chunkcache.Hasher, ep int, q url.Values, body []byte) (chunkcache.Key, backendVerdict) {
	if ep == epDecompress {
		wantF64 := false
		switch q.Get("elem") {
		case "", "f32":
		case "f64":
			wantF64 = true
		default:
			return chunkcache.Key{}, backendRejects
		}
		sr := ceresz.NewStreamReader(bytes.NewReader(body))
		sr.SetLimits(backendMaxFrameBytes, backendMaxChunkElems)
		payload, err := sr.NextRaw()
		switch {
		case errors.Is(err, ceresz.ErrFrameTooLarge):
			return chunkcache.Key{}, backendOverCap
		case err != nil:
			return chunkcache.Key{}, backendRejects // io.EOF included: no frame
		}
		return h.Key(chunkcache.AppendDecompressPreamble(h.Preamble(), wantF64), payload), backendKeys
	}

	eps, err := strconv.ParseFloat(q.Get("eps"), 64)
	if err != nil || !(eps > 0) {
		return chunkcache.Key{}, backendRejects
	}
	abs := true
	switch q.Get("mode") {
	case "", "abs":
	case "rel":
		abs = false
	default:
		return chunkcache.Key{}, backendRejects
	}
	elem, es := byte(ceresz.Float32), 4
	switch q.Get("elem") {
	case "", "f32":
	case "f64":
		elem, es = byte(ceresz.Float64), 8
	default:
		return chunkcache.Key{}, backendRejects
	}
	chunkElems, overCap := backendChunkElems, false
	if s := q.Get("chunk"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return chunkcache.Key{}, backendRejects
		}
		chunkElems, overCap = n, n > backendMaxChunkElems
	}
	blockLen := 0
	if s := q.Get("block"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 8 || n%8 != 0 {
			return chunkcache.Key{}, backendRejects
		}
		blockLen = n
	}
	if overCap {
		return chunkcache.Key{}, backendOverCap
	}
	n := min(len(body), chunkElems*es)
	if n == 0 || n%es != 0 {
		return chunkcache.Key{}, backendRejects
	}
	pre := chunkcache.AppendCompressPreamble(h.Preamble(), elem, abs, eps, blockLen)
	return h.Key(pre, body[:n]), backendKeys
}

// FuzzRouteKey feeds request queries and bodies through the proxy's
// routing-key extraction ((*Proxy).routeKey and firstFramePayload) and
// holds it to the backend: where the backend keys the first chunk or
// frame, the proxy's digest must be that key (cache affinity); where the
// backend rejects the request, the proxy must fall back to its private
// namespace. Requests over a backend deployment cap are exempt — the
// proxy cannot know the caps, and such requests cache nothing.
func FuzzRouteKey(f *testing.F) {
	raw := rawF32Body(300, 1)
	var framed bytes.Buffer
	sw := ceresz.NewStreamWriter(&framed, ceresz.ABS(1e-3), ceresz.Options{})
	data := make([]float32, 300)
	for i := range data {
		data[i] = float32(math.Sin(0.05 * float64(i)))
	}
	if _, err := sw.WriteChunk(data); err != nil {
		f.Fatal(err)
	}
	frame := framed.Bytes()
	for _, s := range []struct {
		decompress bool
		query      string
		body       []byte
	}{
		{false, "mode=abs&eps=0.001&elem=f32&chunk=64", raw},
		{false, "mode=rel&eps=1e-3&chunk=100&block=16", raw},
		{false, "eps=0.5&elem=f64", raw},
		{false, "eps=0.5", raw[:7]},
		{false, "eps=0.5", nil},
		{false, "eps=-1", raw},
		{false, "eps=1&chunk=99999999", raw},
		{false, "eps=1&block=12", raw},
		{true, "", frame},
		{true, "elem=f64", frame},
		{true, "elem=f16", frame},
		{true, "", frame[:len(frame)-1]},
		{true, "", []byte("CSZF\x04\x00\x00\x00data")},
		{true, "", []byte("CSZF\x00\x00\x00\x00")},
		{true, "", []byte("XXXX")},
	} {
		f.Add(s.decompress, s.query, s.body)
	}

	p, err := New(Config{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(p.Close)
	h := chunkcache.NewHasher()
	f.Fuzz(func(t *testing.T, decompress bool, query string, body []byte) {
		ep := epCompress
		if decompress {
			ep = epDecompress
		}
		q, _ := url.ParseQuery(query) // as r.URL.Query() on both tiers
		got := p.routeKey(ep, q, body)
		want, verdict := backendKey(h, ep, q, body)
		switch verdict {
		case backendKeys:
			if got != want {
				t.Fatalf("proxy digest %x, backend key %x", got, want)
			}
		case backendRejects:
			fallback := h.Key(append(h.Preamble(), chunkcache.KeyVersion, 0, byte(ep)), body)
			if got != fallback {
				t.Fatalf("backend rejects the request, but the proxy routed it by affinity digest %x", got)
			}
		}
	})
}
