package mapping

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"ceresz/internal/wse"
)

// scheduleDigest hashes everything a run exposes about its simulated
// schedule: the cycle count, the processed-event count, the attribution
// totals, every PE's Stats, the emission log (block id, PE, cycle) in
// emission order and the raw span log.
func scheduleDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	m := res.Mesh
	fmt.Fprintf(h, "cycles=%d processed=%d totals=%+v\n", res.Cycles, m.Processed(), res.Attribution.Totals)
	cfg := m.Config()
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			fmt.Fprintf(h, "pe(%d,%d) %+v\n", r, c, m.PE(r, c).Stats())
		}
	}
	for _, e := range emissionLog(t, m) {
		fmt.Fprintf(h, "emit %d %v %d\n", e.id, e.from, e.at)
	}
	hashSpans(h, res.SpanLog)
	return hex.EncodeToString(h.Sum(nil))
}

func hashSpans(h hash.Hash, sl *wse.SpanLog) {
	if sl == nil {
		return
	}
	for _, ev := range sl.Events() {
		fmt.Fprintf(h, "span %+v\n", ev)
	}
}

// goldenRun is one direction's pinned schedule.
type goldenRun struct {
	cycles, processed int64
	digest            string
}

// TestScheduleGolden pins the simulated schedule of a small compress and
// decompress, for the three ingress shapes, to values recorded from the
// eager-injection engine with per-block heap-allocated block state. Any
// host-side change to how blocks are stored, injected or merged must
// leave every cycle, event, stat, emission and span exactly as it was,
// on the sequential engine and on the sharded one.
func TestScheduleGolden(t *testing.T) {
	data := smoothField(32*150+7, 21) // a partial last block
	for i := 0; i < 32; i++ {
		data[32*5+i] = 0 // a zero block
	}
	data[32*9+3] = float32(math.Inf(1)) // a verbatim block
	mesh := wse.Config{Rows: 3, Cols: 6}
	cases := []struct {
		name string
		cfg  PlanConfig
		want [2]goldenRun // compress, decompress
	}{
		{"per-row", PlanConfig{Mesh: mesh, PipelineLen: 2, RecordSpans: true}, [2]goldenRun{
			{328235, 1063, "55449bdd56c19c07d8fa68d66f470accf3c2ea3c80e9f0c3fbc84a613846b28a"},
			{267069, 1063, "97637fe74c11d9ebbdcde81ab1797bc3dbaa94220d1106273fccd9c8d8febc33"},
		}},
		{"single-ingress", PlanConfig{Mesh: mesh, PipelineLen: 2, SingleIngress: true, RecordSpans: true}, [2]goldenRun{
			{367243, 1363, "ea3c43d53fbfa7d61f9dadb59038fd0c5c7524e6a3f5f41d26e748ca50600949"},
			{295977, 1363, "4f5a926c71ec0b1b16d9217bbd06a953f06ccb268a5085b98c6b0b3e12ceeaa3"},
		}},
		{"inject-interval", PlanConfig{Mesh: mesh, PipelineLen: 2, InjectInterval: 7000, RecordSpans: true}, [2]goldenRun{
			{380443, 1063, "cfbe2ff358aaa13b6c70d3be8d58249fb19c5eb86af50d2459b6b8ea71af3f53"},
			{374054, 1063, "22d5521ab40f62f4684f8ea202235c6444d7edaf9f91de6d0a746af5865494f8"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				cfg := tc.cfg
				cfg.Mesh.Workers = workers
				plan, err := NewPlan(compressChain(t, 1e-3, 12), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := plan.Compress(data)
				if err != nil {
					t.Fatal(err)
				}
				dplan, err := NewPlan(decompressChain(t, 1e-3, 12), cfg)
				if err != nil {
					t.Fatal(err)
				}
				dres, err := dplan.Decompress(res.Bytes)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range []*Result{res, dres} {
					got := goldenRun{r.Cycles, r.Mesh.Processed(), scheduleDigest(t, r)}
					if got != tc.want[i] {
						t.Errorf("workers=%d %s: got {%d, %d, %q}, want %+v",
							workers, [2]string{"compress", "decompress"}[i], got.cycles, got.processed, got.digest, tc.want[i])
					}
				}
			}
		})
	}
}
