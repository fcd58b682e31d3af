package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ceresz/internal/quant"
)

// parallelTestWorkers is the worker counts the differential tests sweep:
// sequential, minimal sharding, the host's core count, and a count far
// above it (shards are decoupled from pool concurrency, so the stitch path
// runs at any of these even on a 1-CPU host).
func parallelTestWorkers() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), 3*runtime.GOMAXPROCS(0) + 1}
}

func parallelTestData(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.02
		data[i] = float32(math.Sin(float64(i)*0.003)*3 + v)
	}
	// A few pathological values so verbatim blocks land mid-stream.
	if n > 100 {
		data[n/3] = float32(math.Inf(1))
		data[n/2] = float32(math.NaN())
		data[2*n/3] = math.MaxFloat32
	}
	return data
}

// TestParallelCompressByteIdentity is the tentpole invariant: for every
// worker count, eps and fixed-bound modes, block sizes and input shapes —
// including tiny inputs with fewer blocks than workers — the parallel
// compressor's bytes equal the sequential reference's.
func TestParallelCompressByteIdentity(t *testing.T) {
	sizes := []int{0, 1, 7, 31, 32, 33, 100, 1000, 64 << 10}
	for _, n := range sizes {
		data := parallelTestData(n, int64(n)+1)
		for _, L := range []int{8, 32, 96} {
			for _, rel := range []bool{false, true} {
				var bound quant.Bound
				if rel {
					bound = quant.REL(1e-3)
				} else {
					bound = quant.ABS(1e-3)
				}
				seq, seqStats, err := Compress(nil, data, Options{Bound: bound, BlockLen: L, Workers: 1})
				if err != nil {
					t.Fatalf("n=%d L=%d rel=%v: sequential: %v", n, L, rel, err)
				}
				for _, w := range parallelTestWorkers() {
					par, parStats, err := Compress(nil, data, Options{Bound: bound, BlockLen: L, Workers: w})
					if err != nil {
						t.Fatalf("n=%d L=%d rel=%v workers=%d: %v", n, L, rel, w, err)
					}
					if !bytes.Equal(par, seq) {
						t.Fatalf("n=%d L=%d rel=%v workers=%d: stream differs from sequential (%d vs %d bytes)",
							n, L, rel, w, len(par), len(seq))
					}
					if *parStats != *seqStats {
						t.Fatalf("n=%d L=%d rel=%v workers=%d: stats differ: %+v vs %+v",
							n, L, rel, w, parStats, seqStats)
					}
				}
			}
		}
	}
}

// TestParallelDecompressByteIdentity checks the decode side of the
// invariant, plus negative workers (= all cores).
func TestParallelDecompressByteIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 33, 1000, 64 << 10} {
		data := parallelTestData(n, int64(n)+2)
		comp, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := Decompress(nil, comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range append(parallelTestWorkers(), -1) {
			par, m, err := Decompress(nil, comp, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			if m.Elements != n || len(par) != len(seq) {
				t.Fatalf("n=%d workers=%d: decoded %d elements, want %d", n, w, len(par), len(seq))
			}
			for i := range seq {
				if math.Float32bits(par[i]) != math.Float32bits(seq[i]) {
					t.Fatalf("n=%d workers=%d: bit mismatch at %d", n, w, i)
				}
			}
		}
	}
}

// TestParallelCompress64ByteIdentity covers the float64 twin for both
// bound modes and tiny inputs.
func TestParallelCompress64ByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 5, 33, 1000, 16 << 10} {
		data := make([]float64, n)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64() * 0.01
			data[i] = math.Cos(float64(i)*0.007) + v
		}
		for _, rel := range []bool{false, true} {
			var bound quant.Bound
			if rel {
				bound = quant.REL(1e-4)
			} else {
				bound = quant.ABS(1e-6)
			}
			seq, _, err := Compress(nil, data, Options{Bound: bound, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			seqOut, _, err := Decompress64(nil, seq, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parallelTestWorkers() {
				par, _, err := Compress(nil, data, Options{Bound: bound, Workers: w})
				if err != nil {
					t.Fatalf("n=%d rel=%v workers=%d: %v", n, rel, w, err)
				}
				if !bytes.Equal(par, seq) {
					t.Fatalf("n=%d rel=%v workers=%d: float64 stream differs from sequential", n, rel, w)
				}
				parOut, _, err := Decompress64(nil, seq, w)
				if err != nil {
					t.Fatalf("n=%d rel=%v workers=%d: decompress64: %v", n, rel, w, err)
				}
				for i := range seqOut {
					if math.Float64bits(parOut[i]) != math.Float64bits(seqOut[i]) {
						t.Fatalf("n=%d rel=%v workers=%d: decode bit mismatch at %d", n, rel, w, i)
					}
				}
			}
		}
	}
}

// TestParallelConcurrentCalls drives concurrent parallel Compress calls —
// the serving shape, where several requests shard onto one shared pool —
// each checked against the sequential reference. Primarily a -race target.
func TestParallelConcurrentCalls(t *testing.T) {
	data := parallelTestData(32<<10, 17)
	seq, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	done := make(chan error, callers)
	for k := 0; k < callers; k++ {
		go func(k int) {
			for i := 0; i < 3; i++ {
				par, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), Workers: 2 + k%5})
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(par, seq) {
					t.Errorf("caller %d: stream differs from sequential", k)
				}
				out, _, err := Decompress(nil, par, 2+k%5)
				if err != nil {
					done <- err
					return
				}
				_ = out
			}
			done <- nil
		}(k)
	}
	for k := 0; k < callers; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelDecompressErrorSurfaces corrupts a mid-stream block and
// checks the parallel decoder reports it (ErrBadStream) just like the
// sequential one, at every worker count.
func TestParallelDecompressErrorSurfaces(t *testing.T) {
	data := parallelTestData(4096, 23)
	comp, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, offsets, err := BlockOffsets(comp)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(comp)
	bad[StreamHeaderSize+offsets[len(offsets)/2]] = 0xFE // invalid width header
	for _, w := range parallelTestWorkers() {
		if _, _, err := Decompress(nil, bad, w); err == nil {
			t.Fatalf("workers=%d: corrupted stream decoded without error", w)
		}
	}
}
