package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"ceresz/internal/chunkcache"
	"ceresz/internal/cluster"
	"ceresz/internal/datasets"
	"ceresz/internal/quant"
)

// Serving payload geometry: a 1 Mi-element (4 MiB) body split by the
// server into 64 Ki-element chunks.
const (
	payloadElems = 1 << 20
	chunkElems   = 64 << 10
	hotSetSize   = 16
	epsShare     = 1e-3 // ABS ε as a share of the source field's range
)

// nyxFields generates the named NYX medium fields (2 Mi elements each)
// from seed, in the dataset's field order.
func nyxFields(seed int64, names ...string) ([][]float32, error) {
	d, err := datasets.ByName("NYX", datasets.Medium)
	if err != nil {
		return nil, err
	}
	var out [][]float32
	for i := range d.Fields {
		f := &d.Fields[i]
		for _, n := range names {
			if f.Name == n {
				out = append(out, f.Data(seed))
			}
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("nyx fields %v: found %d", names, len(out))
	}
	return out, nil
}

// nyxAll returns every NYX medium field generated from seed.
func nyxAll(seed int64) ([][]float32, error) {
	d, err := datasets.ByName("NYX", datasets.Medium)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(d.Fields))
	for i := range d.Fields {
		out[i] = d.Fields[i].Data(seed)
	}
	return out, nil
}

// servingFields are the serving workloads' sources. The three velocity
// components share a value range and compress alike (ratio ≈ 6), so
// per-request cost is unimodal and every chunk keeps the codec busy.
var servingFields = []string{"velocity_x", "velocity_y", "velocity_z"}

// payloadGen draws serving request bodies: 1 Mi-element windows of the
// source fields whose 64 Ki-element chunks each get a unique stamp, so
// no chunk's digest repeats unless the body itself is resent. Streams
// (one per client, plus warm-up) are independent and deterministic in
// the seed; a stream is not safe for concurrent use.
type payloadGen struct {
	fields [][]float32
	eps    []float64 // ABS ε per source field
	// bins[f] spans the quantization bins inside field f's range: a stamp
	// writes one bin index per stamped element, so distinct stamps
	// quantize differently and the compressed frames (the decompress
	// cache keys) are new too, not only the raw chunks.
	bins    []stampBins
	streams []*stream
}

// stampElems is how many leading elements of a chunk carry its stamp.
const stampElems = 3

type stampBins struct {
	first, count int64 // bin indices first .. first+count-1 lie in range
	width        float64
}

type stream struct {
	rng   *rand.Rand
	id, n int
	total int
}

// payload is one generated body and the bound it is sent with.
type payload struct {
	data []float32
	eps  float64
	hot  int // index into the hot set, -1 for a unique body
}

func newPayloadGen(seed int64, streams int) (*payloadGen, error) {
	fields, err := nyxFields(seed, servingFields...)
	if err != nil {
		return nil, err
	}
	g := &payloadGen{fields: fields}
	for _, f := range fields {
		lo, hi := quant.Range(f)
		eps := epsShare * (hi - lo)
		w := 2 * eps // the quantizer's bin width
		first := int64(math.Ceil(lo/w)) + 1
		g.eps = append(g.eps, eps)
		g.bins = append(g.bins, stampBins{first: first, count: int64(math.Floor(hi/w)) - first, width: w})
	}
	for i := 0; i < streams; i++ {
		g.streams = append(g.streams, &stream{
			rng: rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			id:  i, total: streams,
		})
	}
	return g, nil
}

// stamp writes stamp k over the leading elements of chunk, a chunk of
// field f: the base-count digits of k, each as the centre of an in-range
// quantization bin.
func (g *payloadGen) stamp(chunk []float32, f int, k int64) error {
	b := g.bins[f]
	for j := 0; j < stampElems; j++ {
		chunk[j] = float32(float64(b.first+k%b.count) * b.width)
		k /= b.count
	}
	if k != 0 {
		return fmt.Errorf("stamp space of field %d exhausted", f)
	}
	return nil
}

// fill writes the next window of stream s into buf, stamping each chunk
// with stamps reserved from k-space region: region 0 holds the hot set,
// region 1 every unique body.
func (g *payloadGen) fill(s *stream, buf []float32, region int) (payload, error) {
	field := s.rng.Intn(len(g.fields))
	src := g.fields[field]
	windows := (len(src) - payloadElems) / chunkElems
	off := s.rng.Intn(windows+1) * chunkElems
	copy(buf, src[off:off+payloadElems])
	chunks := payloadElems / chunkElems
	for c := 0; c < chunks; c++ {
		// Stream-interleaved numbering keeps every stream's stamps
		// disjoint without coordination.
		k := int64(region)<<20 + int64((s.n*s.total+s.id)*chunks+c)
		if err := g.stamp(buf[c*chunkElems:], field, k); err != nil {
			return payload{}, err
		}
	}
	s.n++
	return payload{data: buf, eps: g.eps[field], hot: -1}, nil
}

// next draws a unique body for stream i into buf.
func (g *payloadGen) next(i int, buf []float32) (payload, error) {
	return g.fill(g.streams[i], buf, 1)
}

// hotSet builds the fleet-repeat hot set: hotSetSize distinct bodies drawn
// from their own stream.
func (g *payloadGen) hotSet(seed int64) ([]payload, error) {
	s := &stream{rng: rand.New(rand.NewSource(seed*104729 + 17)), total: 1}
	var hot []payload
	for h := 0; h < hotSetSize; h++ {
		p, err := g.fill(s, make([]float32, payloadElems), 0)
		if err != nil {
			return nil, err
		}
		p.hot = h
		hot = append(hot, p)
	}
	return hot, nil
}

// f32Bytes appends the little-endian wire form of vals to dst, exactly
// what client/ sends.
func f32Bytes(dst []byte, vals []float32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// chunkKey is the backend's compress-direction cache key for one chunk,
// which is also the proxy's routing key when the chunk opens a body.
func chunkKey(h *chunkcache.Hasher, eps float64, chunk []byte) chunkcache.Key {
	return h.Key(chunkcache.AppendCompressPreamble(h.Preamble(), 0, true, eps, 0), chunk)
}

// backendNames are the fixed names the proxy knows the backends by; the
// benchmark's transport dials them to the loopback listeners, so the
// ring (a function of the names) does not depend on ephemeral ports.
func backendNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://b%d.perfbench.invalid", i)
	}
	return out
}

// hotSetOwners returns how many distinct routing keys the hot set has and
// the backend owning each, on the ring the proxy builds for the
// benchmark's backends at full weight.
func hotSetOwners(hot []payload, backends int) (distinct int, owners []int) {
	nodes := make([]cluster.Node, backends)
	for i, n := range backendNames(backends) {
		nodes[i] = cluster.Node{Index: i, Name: n, Weight: 64}
	}
	ring := cluster.BuildRing(nodes)
	h := chunkcache.NewHasher()
	seen := map[chunkcache.Key]bool{}
	var buf []byte
	for _, p := range hot {
		buf = f32Bytes(buf[:0], p.data[:chunkElems])
		k := chunkKey(h, p.eps, buf)
		seen[k] = true
		owners = append(owners, ring.Owner(k))
	}
	return len(seen), owners
}
