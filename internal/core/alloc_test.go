package core

import (
	"math"
	"testing"

	"ceresz/internal/quant"
)

// Steady-state allocation contracts: once the destination buffers have
// capacity and the worker pools are warm, sequential Compress/Decompress
// must not touch the heap at all. testing.AllocsPerRun runs with
// GOMAXPROCS=1, and Workers: 1 pins the sequential path explicitly.
// Race-detector instrumentation allocates, so the contracts are only
// checked without it.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
}

func allocTestData(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)*0.03)) * 40
	}
	return data
}

func TestCompressZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100) // includes a partial trailing block
	opts := Options{Workers: 1, Bound: quant.REL(1e-3)}
	var stats Stats
	var dst []byte
	var err error
	// Warm-up: size dst and populate the encoder pool.
	dst, err = CompressInto(dst, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats.Eps > 0) {
		t.Fatal("warm-up produced no usable stats")
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressInto(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestCompressZeroAllocWorkersZero pins the Workers: 0 contract: the zero
// value means sequential (not GOMAXPROCS), so the default-options path
// stays on the zero-allocation track.
func TestCompressZeroAllocWorkersZero(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100)
	opts := Options{Bound: quant.REL(1e-3)} // Workers: 0 — must stay sequential
	var stats Stats
	dst, err := CompressInto(nil, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressInto(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressInto with Workers: 0 allocates %.1f times per run, want 0", allocs)
	}
	out, _, err := Decompress(nil, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		out, _, err = Decompress(out[:0], dst, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress with workers 0 allocates %.1f times per run, want 0", allocs)
	}
}

func TestCompressWithEpsZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4096)
	opts := Options{Workers: 1, HeaderBytes: 1}
	var stats Stats
	dst, err := CompressWithEpsInto(nil, data, 1e-3, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressWithEpsInto(dst[:0], data, 1e-3, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressWithEpsInto allocates %.1f times per run, want 0", allocs)
	}
}

func TestDecompressZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100)
	var stats Stats
	comp, err := CompressInto(nil, data, Options{Workers: 1, Bound: quant.REL(1e-3)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(nil, comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, _, err = Decompress(out[:0], comp, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress allocates %.1f times per run, want 0", allocs)
	}
}

func TestCompress64ZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := make([]float64, 4100)
	for i := range data {
		data[i] = math.Cos(float64(i) * 0.01)
	}
	opts := Options{Workers: 1, Bound: quant.ABS(1e-6)}
	var stats Stats
	dst, err := CompressInto(nil, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressInto(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Compress64Into allocates %.1f times per run, want 0", allocs)
	}
	out, _, err := Decompress64(nil, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		out, _, err = Decompress64(out[:0], dst, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress64 allocates %.1f times per run, want 0", allocs)
	}
}

func allocTestData64(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Cos(float64(i)*0.01) * 40
	}
	return data
}

// TestDecompress64ZeroAllocSteadyState covers the float64 decode paths
// the round-trip contract above does not reach: 1-byte block headers, the
// Workers: 0 default, and verbatim blocks with 8-byte payloads.
func TestDecompress64ZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData64(4100)
	for i := 0; i < len(data); i += 512 {
		data[i] = 1e300 // out of int32 code range: the block goes verbatim
	}
	var stats Stats
	comp, err := CompressInto(nil, data, Options{HeaderBytes: 1, Bound: quant.ABS(1e-6)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks == 0 {
		t.Fatal("test stream has no verbatim blocks")
	}
	out, _, err := Decompress64(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, _, err = Decompress64(out[:0], comp, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress64 allocates %.1f times per run, want 0", allocs)
	}
}

// TestInterleavedElemZeroAlloc alternates float32 and float64 passes, the
// way a checkpoint writer mixing field types does. Pooled scratch is kept
// per element type, so switching types must not evict the other type's
// encoder or decoder and the steady state stays allocation-free.
func TestInterleavedElemZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	d32, d64 := allocTestData(4100), allocTestData64(4100)
	opts := Options{Workers: 1, Bound: quant.REL(1e-4)}
	var stats Stats
	var c32, c64 []byte
	var o32 []float32
	var o64 []float64
	var err error
	pass := func() {
		if c32, err = CompressInto(c32[:0], d32, opts, &stats); err != nil {
			t.Fatal(err)
		}
		if c64, err = CompressInto(c64[:0], d64, opts, &stats); err != nil {
			t.Fatal(err)
		}
		if o32, _, err = Decompress(o32[:0], c32, 1); err != nil {
			t.Fatal(err)
		}
		if o64, _, err = Decompress64(o64[:0], c64, 1); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the buffers and both element types' pools
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("interleaved float32/float64 passes allocate %.1f times per run, want 0", allocs)
	}
}
