package main

import (
	"fmt"
	"slices"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/core"
	"ceresz/internal/flenc"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
)

// refInput is one array of the workload's own input with the absolute
// bound it is compressed under.
type refInput struct {
	data []float32
	eps  float64
}

const probeReps = 5

// timeMedian runs fn probeReps times and returns the median wall time.
func timeMedian(fn func() error) (time.Duration, error) {
	var d []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d)), nil
}

// isolated runs the traced run's layer probes on the workload's reference
// inputs, after the measured phase so they disturb nothing: each layer's
// public calls timed alone, single-threaded, plus the exact block
// statistics of the inputs.
func (rc *runCtx) isolated() error {
	if len(rc.refs) == 0 {
		return fmt.Errorf("workload recorded no reference input")
	}
	if err := rc.coreProbe(); err != nil {
		return err
	}
	rc.hashProbe(rc.refs[0])
	if err := rc.flencProbe(rc.refs[0]); err != nil {
		return err
	}
	r := rc.refs[0]
	width, err := stages.EstimateWidth(r.data, r.eps, core.DefaultBlockLen, 20)
	if err != nil {
		return err
	}
	var est, plan []float64
	for i := 0; i < probeReps; i++ {
		e, p, err := planOnce(r.data, r.eps, width)
		if err != nil {
			return err
		}
		est, plan = append(est, ms(e)), append(plan, ms(p))
	}
	rc.put("stages.estimate_width_ms", median(est))
	rc.put("mapping.plan_ms", median(plan))
	return nil
}

// coreProbe times the host codec with one worker over every reference
// input, in both element widths, and sums the inputs' block statistics.
func (rc *runCtx) coreProbe() error {
	seq := ceresz.Options{Workers: 1}
	comp := make([][]byte, len(rc.refs))
	rec := make([][]float32, len(rc.refs))
	wide := make([][]float64, len(rc.refs))
	comp64 := make([][]byte, len(rc.refs))
	rec64 := make([][]float64, len(rc.refs))
	stats := make([]ceresz.Stats, len(rc.refs))
	var raw float64
	for i, r := range rc.refs {
		wide[i] = widen(r.data)
		raw += float64(4 * len(r.data))
	}
	type probe struct {
		name  string
		bytes float64
		fn    func(i int, r refInput) error
	}
	probes := []probe{
		{"core.compress_ns_per_byte", raw, func(i int, r refInput) (err error) {
			comp[i], err = ceresz.CompressInto(comp[i][:0], r.data, ceresz.ABS(r.eps), seq, &stats[i])
			return err
		}},
		{"core.decompress_ns_per_byte", raw, func(i int, r refInput) (err error) {
			rec[i], err = ceresz.DecompressWith(rec[i][:0], comp[i], seq)
			return err
		}},
		{"core.compress64_ns_per_byte", 2 * raw, func(i int, r refInput) (err error) {
			var st ceresz.Stats
			comp64[i], err = ceresz.Compress64Into(comp64[i][:0], wide[i], ceresz.ABS(r.eps), seq, &st)
			return err
		}},
		{"core.decompress64_ns_per_byte", 2 * raw, func(i int, r refInput) (err error) {
			rec64[i], err = ceresz.Decompress64With(rec64[i][:0], comp64[i], seq)
			return err
		}},
	}
	for _, p := range probes {
		d, err := timeMedian(func() error {
			for i, r := range rc.refs {
				if err := p.fn(i, r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rc.put(p.name, float64(d)/p.bytes)
	}
	var total ceresz.Stats
	for i, st := range stats {
		if err := withinEps(rc.refs[i].data, rec[i], rc.refs[i].eps); err != nil {
			return fmt.Errorf("%w: core probe: %v", errCheck, err)
		}
		if err := withinEps(wide[i], rec64[i], rc.refs[i].eps); err != nil {
			return fmt.Errorf("%w: core64 probe: %v", errCheck, err)
		}
		total.ZeroBlocks += st.ZeroBlocks
		total.VerbatimBlocks += st.VerbatimBlocks
		for w, n := range st.WidthHistogram {
			total.WidthHistogram[w] += n
		}
	}
	rc.put("core.mean_width", total.MeanWidth())
	rc.put("core.zero_blocks", float64(total.ZeroBlocks))
	rc.put("core.verbatim_blocks", float64(total.VerbatimBlocks))
	return nil
}

// probeElems bounds the kernel probes to the first serving body's worth
// of input.
const probeElems = payloadElems

// hashProbe times the chunk cache's key hashing and the proxy's routing
// key (preamble plus Hasher.Key over a body's first chunk) on the
// reference input's chunks.
func (rc *runCtx) hashProbe(r refInput) {
	data := r.data[:min(len(r.data), probeElems)]
	var chunks [][]byte
	for off := 0; off+chunkElems <= len(data); off += chunkElems {
		chunks = append(chunks, f32Bytes(nil, data[off:off+chunkElems]))
	}
	h := chunkcache.NewHasher()
	pre := chunkcache.AppendCompressPreamble(nil, 0, true, r.eps, 0)
	var sink chunkcache.Key
	d, _ := timeMedian(func() error { // hashing cannot fail
		for _, c := range chunks {
			sink = h.Key(pre, c)
		}
		return nil
	})
	rc.put("chunkcache.hash_ns_per_byte", float64(d)/float64(len(chunks)*4*chunkElems))
	var perKey []float64
	for i := 0; i < probeReps; i++ {
		for _, c := range chunks {
			t0 := time.Now()
			sink = chunkKey(h, r.eps, c)
			perKey = append(perKey, float64(time.Since(t0))/1e3)
		}
	}
	_ = sink
	rc.put("cluster.route_key_us", median(perKey))
}

// flencProbe times the fixed-length encoder and decoder alone over the
// reference input's quantized Lorenzo residuals, block by block.
func (rc *runCtx) flencProbe(r refInput) error {
	const L = core.DefaultBlockLen
	data := r.data[:min(len(r.data), probeElems)/L*L]
	q, err := quant.MakeQuantizer(r.eps)
	if err != nil {
		return err
	}
	codes := make([]int32, 0, len(data))
	blk := make([]int32, L)
	for off := 0; off < len(data); off += L {
		if !q.Quantize(blk, data[off:off+L]) {
			continue // quantization overflow: the codec stores it verbatim
		}
		lorenzo.Forward(blk, blk)
		codes = append(codes, blk...)
	}
	blocks := len(codes) / L
	if blocks == 0 {
		return fmt.Errorf("flenc probe: no encodable block")
	}
	scratch := flenc.NewBlock(L)
	var enc []byte
	de, err := timeMedian(func() error {
		enc = enc[:0]
		for b := 0; b < blocks; b++ {
			enc, _ = flenc.EncodeBlock(enc, codes[b*L:(b+1)*L], flenc.HeaderU32, scratch)
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec := make([]int32, len(codes))
	dd, err := timeMedian(func() error {
		src := enc
		for b := 0; b < blocks; b++ {
			n, err := flenc.DecodeBlock(dec[b*L:(b+1)*L], src, flenc.HeaderU32, scratch)
			if err != nil {
				return err
			}
			src = src[n:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !slices.Equal(dec, codes) {
		return fmt.Errorf("%w: flenc blocks do not round-trip", errCheck)
	}
	rc.put("flenc.encode_ns_per_block", float64(de)/float64(blocks))
	rc.put("flenc.decode_ns_per_block", float64(dd)/float64(blocks))
	return nil
}
