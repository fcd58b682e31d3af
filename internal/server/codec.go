package server

import (
	"encoding/binary"
	"io"
	"slices"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/core"
	"ceresz/internal/rawfloat"
)

// codec is one worker's pooled compression state. Every buffer is reused
// across chunks and across requests, so once warm the per-chunk compress
// path performs zero heap allocations (asserted by TestCompressHotPathZeroAlloc):
// raw body bytes land in rawIn, decode into f32/f64, and the compressed
// frame is assembled in frame — an 8-byte CSZF header followed by the
// container written by the zero-alloc *Into entry points. A codec is owned
// by exactly one request at a time (the pool hands it out), so no locking.
type codec struct {
	id    int    // worker index, used as the trace track id
	rawIn []byte // raw little-endian chunk bytes from the request body
	f32   []float32
	f64   []float64
	frame []byte // CSZF frame under construction: 8-byte header + payload
	out   []byte // encoded raw-float response bytes (decompress path)
	stats ceresz.Stats
	sr    *ceresz.StreamReader
	tr    *reqSpan // span of the request currently holding this codec; nil when untraced
	// workers is this request's share of the server's intra-request
	// parallelism budget (Config.HostWorkers), set by admit on checkout.
	// 1 keeps the sequential zero-alloc path.
	workers int
	// hasher derives chunk-cache keys; per-codec so key derivation needs
	// no locking and reuses one SHA-256 state (zero allocations per key).
	hasher *chunkcache.Hasher
}

func newCodec(id int) *codec {
	return &codec{id: id, sr: ceresz.NewStreamReader(nil), hasher: chunkcache.NewHasher()}
}

// frameMagic mirrors the package-level CSZF framing (stream.go); the codec
// writes headers itself so header and payload go out in one Write.
var frameMagic = [4]byte{'C', 'S', 'Z', 'F'}

const frameHeaderSize = 8

// cparams is a compress request's resolved configuration.
type cparams struct {
	abs        bool // true: opts.Bound.Value is a pre-resolved absolute ε
	elem       ceresz.Elem
	chunkElems int
	// opts is the codec configuration. Bound: REL resolves per chunk, like
	// StreamWriter. Workers: the request's budget share (1 = zero-alloc
	// path).
	opts core.Options
}

// readRaw fills rawIn with up to want bytes from r. A short final read is
// returned as n with io.EOF; bytes that do not divide the element size are
// the caller's error to raise.
func (c *codec) readRaw(r io.Reader, want int) (int, error) {
	c.rawIn = slices.Grow(c.rawIn[:0], want)[:want]
	n, err := io.ReadFull(r, c.rawIn)
	c.rawIn = c.rawIn[:n]
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return n, err
}

// readChunk reads one raw chunk (up to chunkElems elements) into c.rawIn.
// It returns the byte count and io.EOF once the body is drained; a byte
// count that does not divide the element size is rejected here so the
// compress step always sees whole elements.
func (c *codec) readChunk(r io.Reader, p cparams) (int, error) {
	es := p.elem.Size()
	t0 := c.tr.now()
	n, err := c.readRaw(r, es*p.chunkElems)
	c.tr.accum(stageRead, t0)
	if n == 0 {
		if err == io.EOF || err == nil {
			return 0, io.EOF
		}
		return 0, err
	}
	if err != nil && err != io.EOF {
		return n, err
	}
	if n%es != 0 {
		return n, errOddBody(n, es)
	}
	return n, nil
}

// compress compresses the raw chunk sitting in c.rawIn as p.elem values
// and assembles the CSZF frame in c.frame.
func (c *codec) compress(p cparams) ([]byte, error) {
	if p.elem == ceresz.Float64 {
		return compressChunk(c, &c.f64, p)
	}
	return compressChunk(c, &c.f32, p)
}

// compressChunk is compress for element type T, decoding c.rawIn into
// *vals. Steady-state zero-alloc: all buffers are warm after the first
// chunk.
func compressChunk[T core.Float](c *codec, vals *[]T, p cparams) ([]byte, error) {
	decodeRaw(c, vals)
	c.frame = append(c.frame[:0], frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], 0, 0, 0, 0)
	tc := c.tr.now()
	var err error
	if p.abs {
		c.frame, err = core.CompressWithEpsInto(c.frame, *vals, p.opts.Bound.Value, p.opts, &c.stats)
	} else {
		c.frame, err = core.CompressInto(c.frame, *vals, p.opts, &c.stats)
	}
	c.tr.observe(stageCodec, tc)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(c.frame[4:], uint32(len(c.frame)-frameHeaderSize))
	return c.frame, nil
}

// nextFrame reads one raw chunk from r, compresses it and assembles the
// CSZF frame in c.frame. It returns the frame, the raw byte count
// consumed, and io.EOF (with a nil frame) once the body is drained. This
// is the uncached compress path (and the zero-alloc contract's test
// surface); handleCompress interposes the chunk cache between the read
// and compress halves when one is configured.
func (c *codec) nextFrame(r io.Reader, p cparams) ([]byte, int, error) {
	n, err := c.readChunk(r, p)
	if err != nil {
		return nil, n, err
	}
	frame, err := c.compress(p)
	return frame, n, err
}

// Chunk-cache keys use the canonical layout exported by chunkcache
// (AppendCompressPreamble / AppendDecompressPreamble): a fixed preamble of
// every parameter that shapes the codec's output, then the chunk bytes.
// internal/cluster routes by the same digests, so a consistent-hash proxy
// lands identical chunks on the node whose cache already holds them.

// cacheKeyCompress addresses the raw chunk in c.rawIn under p: direction,
// element type, bound mode, eps bits and block length all shape the frame
// bytes. Workers is deliberately excluded — the host codec is
// byte-identical at every worker count (the block-parallel differential
// guarantee), so one entry serves all parallelism levels. A REL bound is
// keyed by λ, not the resolved ε: the resolution is a deterministic
// function of the chunk's value range, which the hashed bytes pin down.
func (c *codec) cacheKeyCompress(p cparams) chunkcache.Key {
	pre := chunkcache.AppendCompressPreamble(c.hasher.Preamble(),
		byte(p.elem), p.abs, p.opts.Bound.Value, p.opts.BlockLen)
	return c.hasher.Key(pre, c.rawIn)
}

// cacheKeyDecompress addresses a CSZF frame payload: the payload encodes
// every codec parameter itself, so only the requested output element type
// joins it in the preamble.
func (c *codec) cacheKeyDecompress(payload []byte, wantF64 bool) chunkcache.Key {
	pre := chunkcache.AppendDecompressPreamble(c.hasher.Preamble(), wantF64)
	return c.hasher.Key(pre, payload)
}

// decodeRaw decodes the little-endian values in c.rawIn into *vals,
// reusing its capacity, and returns them.
func decodeRaw[T core.Float](c *codec, vals *[]T) []T {
	n := len(c.rawIn) / rawfloat.Size[T]()
	*vals = slices.Grow((*vals)[:0], n)[:n]
	rawfloat.Decode(*vals, c.rawIn)
	return *vals
}

// encodeRaw serializes vals into c.out as raw little-endian bytes.
func encodeRaw[T core.Float](c *codec, vals []T) []byte {
	c.out = rawfloat.Append(c.out[:0], vals)
	return c.out
}
