package mapping

import (
	"testing"

	"ceresz/internal/wse"
)

// allocMesh is the simulated geometry of the allocation guard and the
// round-trip benchmark: 64 rows of four 2-PE pipelines.
var allocMesh = PlanConfig{Mesh: wse.Config{Rows: 64, Cols: 8}, PipelineLen: 2}

// TestPlanAllocsScaleWithMesh guards the simulator's host memory model:
// block state lives in per-pipeline pools and blocks enter through one
// host stream per ingress, so a run's allocations grow with the mesh and
// the blocks in flight, not with the blocks simulated. At most one
// allocation per simulated block is allowed in each direction, on the
// sequential and on the sharded engine.
func TestPlanAllocsScaleWithMesh(t *testing.T) {
	for _, nBlocks := range []int{4096, 16384} {
		data := smoothField(32*nBlocks, 5)
		for _, workers := range []int{1, 2} {
			cfg := allocMesh
			cfg.Mesh.Workers = workers
			cplan, err := NewPlan(compressChain(t, 1e-3, 8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			dplan, err := NewPlan(decompressChain(t, 1e-3, 8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var comp []byte
			callocs := testing.AllocsPerRun(2, func() {
				res, err := cplan.Compress(data)
				if err != nil {
					t.Fatal(err)
				}
				comp = res.Bytes
			})
			dallocs := testing.AllocsPerRun(2, func() {
				if _, err := dplan.Decompress(comp); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d blocks, workers=%d: %.3f allocs/block compress, %.3f decompress",
				nBlocks, workers, callocs/float64(nBlocks), dallocs/float64(nBlocks))
			if callocs > float64(nBlocks) || dallocs > float64(nBlocks) {
				t.Errorf("%d blocks, workers=%d: %.0f compress and %.0f decompress allocations, want at most %d (one per block) each",
					nBlocks, workers, callocs, dallocs, nBlocks)
			}
		}
	}
}

// BenchmarkPlanRoundTrip simulates one compress and one decompress of
// 16384 blocks on the 64×8 mesh with 2-PE pipelines.
func BenchmarkPlanRoundTrip(b *testing.B) {
	data := smoothField(32*16384, 5)
	cplan, err := NewPlan(compressChain(b, 1e-3, 8), allocMesh)
	if err != nil {
		b.Fatal(err)
	}
	dplan, err := NewPlan(decompressChain(b, 1e-3, 8), allocMesh)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cplan.Compress(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dplan.Decompress(res.Bytes); err != nil {
			b.Fatal(err)
		}
	}
}
