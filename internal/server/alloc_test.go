package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"ceresz"
	"ceresz/internal/core"
)

// TestCompressHotPathZeroAlloc asserts the acceptance criterion: once a
// worker's codec is warm, compressing a chunk — raw bytes in, CSZF frame
// out — touches the heap zero times. This is the per-chunk path
// handleCompress runs; everything above it (params, admission) is
// per-request.
func TestCompressHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const elems = 4100 // includes a partial trailing chunk at chunk=1024
	data := testData(elems, 42)
	raw := make([]byte, 4*elems)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	p := cparams{
		abs:        true,
		elem:       ceresz.Float32,
		chunkElems: 1024,
		opts:       core.Options{Bound: ceresz.ABS(1e-3), Workers: 1},
	}
	c := newCodec(0)
	r := bytes.NewReader(raw)
	runOnce := func() {
		r.Reset(raw)
		for {
			frame, _, err := c.nextFrame(r, p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Discard.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce() // warm the codec's buffers and the library's encoder pool
	allocs := testing.AllocsPerRun(20, runOnce)
	if allocs != 0 {
		t.Fatalf("steady-state compress hot path allocates %.1f times per run, want 0", allocs)
	}
}

// TestDecompressHotPathZeroAlloc asserts the mirror contract for the
// decode path: one warm StreamReader per codec, zero allocations per frame.
func TestDecompressHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
	for start := 0; start < 4100; start += 1024 {
		end := start + 1024
		if end > 4100 {
			end = 4100
		}
		if _, err := sw.WriteChunk(testData(4100, 42)[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	framed := buf.Bytes()

	c := newCodec(0)
	c.sr.SetLimits(64<<20, 4<<20)
	r := bytes.NewReader(framed)
	runOnce := func() {
		r.Reset(framed)
		c.sr.Reset(r)
		for {
			var err error
			c.f32, err = c.sr.NextInto(c.f32[:0])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Discard.Write(encodeRaw(c, c.f32)); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce()
	allocs := testing.AllocsPerRun(20, runOnce)
	if allocs != 0 {
		t.Fatalf("steady-state decompress hot path allocates %.1f times per run, want 0", allocs)
	}
}
