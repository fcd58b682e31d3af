package mapping

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ceresz/internal/core"
	"ceresz/internal/flenc"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

func smoothField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.02
		data[i] = float32(math.Sin(float64(i)*0.015)*2 + v)
	}
	return data
}

func compressChain(t testing.TB, eps float64, estWidth int) *stages.Chain {
	t.Helper()
	c, err := stages.NewCompressChain(stages.Config{BlockLen: 32, Eps: eps, EstWidth: estWidth})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func decompressChain(t testing.TB, eps float64, estWidth int) *stages.Chain {
	t.Helper()
	c, err := stages.NewDecompressChain(stages.Config{BlockLen: 32, Eps: eps, EstWidth: estWidth})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// --- Algorithm 1 ---

func TestDistributeBasics(t *testing.T) {
	costs := []int64{5078, 1038, 975, 1044, 1037, 1386, 1976, 1976, 1976, 96}
	for m := 1; m <= len(costs); m++ {
		groups, err := Distribute(costs, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if len(groups) != m {
			t.Fatalf("m=%d: %d groups", m, len(groups))
		}
		// Contiguous cover of [0, n).
		next := 0
		for _, g := range groups {
			if g.Lo != next || g.Hi < g.Lo {
				t.Fatalf("m=%d: bad group %+v (next=%d)", m, g, next)
			}
			next = g.Hi
		}
		if next != len(costs) {
			t.Fatalf("m=%d: groups cover %d of %d stages", m, next, len(costs))
		}
	}
}

func TestDistributeGreedyBoundary(t *testing.T) {
	// C = 12, m = 3 → target 4. Greedy fills: {3,3} (sum 6 ≥ 4 after 2nd),
	// wait — it stops as soon as sum ≥ 4, so group1 = {3, 3} (3 < 4, add
	// next → 6). Group2 = {3, 3} likewise; group3 = remainder.
	costs := []int64{3, 3, 3, 3}
	groups, err := Distribute(costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Group{{0, 2}, {2, 4}, {4, 4}}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("groups = %v, want %v", groups, want)
		}
	}
}

func TestDistributeErrors(t *testing.T) {
	if _, err := Distribute(nil, 2); err == nil {
		t.Fatal("accepted empty stages")
	}
	if _, err := Distribute([]int64{1}, 0); err == nil {
		t.Fatal("accepted m=0")
	}
	if _, err := Distribute([]int64{-1}, 1); err == nil {
		t.Fatal("accepted negative cost")
	}
}

func TestMaxPipelineLength(t *testing.T) {
	// Paper §4.2: max feasible length = ⌊C/t₁⌋ with t₁ the largest stage.
	costs := []int64{5078, 1038, 975, 1044, 1037, 1386, 1976, 1976}
	var total int64
	for _, c := range costs {
		total += c
	}
	want := int(total / 5078)
	if got := MaxPipelineLength(costs); got != want {
		t.Fatalf("MaxPipelineLength = %d, want %d", got, want)
	}
	if MaxPipelineLength([]int64{0, 0}) != 1 {
		t.Fatal("zero costs should give length 1")
	}
}

func TestQuickDistributeInvariants(t *testing.T) {
	f := func(raw []uint16, mRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]int64, len(raw))
		for i, r := range raw {
			costs[i] = int64(r)
		}
		m := int(mRaw)%len(costs) + 1
		groups, err := Distribute(costs, m)
		if err != nil {
			return false
		}
		next := 0
		for _, g := range groups {
			if g.Lo != next || g.Hi < g.Lo || g.Hi > len(costs) {
				return false
			}
			next = g.Hi
		}
		return next == len(costs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Functional equivalence with the host compressor ---

func TestPipelineMatchesCoreCompress(t *testing.T) {
	data := smoothField(32*300+9, 1)
	eps := 1e-3
	ref, _, err := core.CompressWithEps(nil, data, eps, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mesh wse.Config
		pl   int
	}{
		{"1x1 single PE", wse.Config{Rows: 1, Cols: 1}, 1},
		{"1x8 multi-pipeline", wse.Config{Rows: 1, Cols: 8}, 1},
		{"4x4", wse.Config{Rows: 4, Cols: 4}, 1},
		{"1x6 pipeline len 3", wse.Config{Rows: 1, Cols: 6}, 3},
		{"2x9 pipeline len 4 (ragged)", wse.Config{Rows: 2, Cols: 9}, 4},
		{"3x10 pipeline len 5", wse.Config{Rows: 3, Cols: 10}, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			chain := compressChain(t, eps, 8)
			plan, err := NewPlan(chain, PlanConfig{Mesh: c.mesh, PipelineLen: c.pl})
			if err != nil {
				t.Fatal(err)
			}
			res, err := plan.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Bytes, ref) {
				t.Fatalf("simulated stream differs from host stream (%d vs %d bytes)", len(res.Bytes), len(ref))
			}
			if res.Cycles <= 0 || res.ThroughputGBps <= 0 {
				t.Fatalf("degenerate result: cycles=%d tput=%g", res.Cycles, res.ThroughputGBps)
			}
		})
	}
}

func TestPipelineDecompressMatchesCore(t *testing.T) {
	data := smoothField(32*150+3, 2)
	eps := 1e-3
	comp, _, err := core.CompressWithEps(nil, data, eps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := core.Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []int{1, 2, 4} {
		chain := decompressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 2, Cols: 8}, PipelineLen: pl})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Decompress(comp)
		if err != nil {
			t.Fatalf("pl=%d: %v", pl, err)
		}
		if len(res.Data) != len(ref) {
			t.Fatalf("pl=%d: %d elements, want %d", pl, len(res.Data), len(ref))
		}
		for i := range ref {
			if res.Data[i] != ref[i] {
				t.Fatalf("pl=%d: element %d differs: %g vs %g", pl, i, res.Data[i], ref[i])
			}
		}
	}
}

func TestPipelineWithVerbatimAndZeroBlocks(t *testing.T) {
	data := smoothField(32*40, 3)
	for i := 0; i < 32; i++ {
		data[i] = 0 // one zero block
	}
	for i := 32; i < 64; i++ {
		data[i] = float32(math.Inf(1)) // one verbatim block
	}
	eps := 1e-3
	ref, _, err := core.CompressWithEps(nil, data, eps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain := compressChain(t, eps, 8)
	plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 2, Cols: 6}, PipelineLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Bytes, ref) {
		t.Fatal("stream with zero+verbatim blocks differs from host stream")
	}
	dchain := decompressChain(t, eps, 8)
	dplan, err := NewPlan(dchain, PlanConfig{Mesh: wse.Config{Rows: 2, Cols: 6}, PipelineLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dplan.Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 32; i < 64; i++ {
		if !math.IsInf(float64(dres.Data[i]), 1) {
			t.Fatalf("verbatim Inf lost at %d", i)
		}
	}
}

// --- Scaling behaviour ---

func TestRowScalingLinear(t *testing.T) {
	// Fig. 7: throughput grows linearly with the number of rows.
	data := smoothField(32*256, 4)
	eps := 1e-3
	var xs []int
	var times []float64
	for _, rows := range []int{1, 2, 4, 8} {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: rows, Cols: 1}, PipelineLen: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, rows)
		times = append(times, float64(res.Cycles))
	}
	if err := SpeedupIsLinear(xs, times, 0.10); err != nil {
		t.Fatalf("row scaling not linear: %v (times=%v)", err, times)
	}
}

func TestColumnScalingNearLinear(t *testing.T) {
	// §4.4: with pipeline length 1, adding columns adds pipelines; the
	// relay overhead keeps it sub-linear but close.
	data := smoothField(32*512, 5)
	eps := 1e-3
	var cycles []float64
	cols := []int{2, 4, 8}
	for _, tc := range cols {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: tc}, PipelineLen: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, float64(res.Cycles))
	}
	// Doubling columns must cut time by at least 1.7× here (relay cost is
	// small relative to compute at these widths).
	for i := 1; i < len(cycles); i++ {
		gain := cycles[i-1] / cycles[i]
		if gain < 1.7 {
			t.Fatalf("cols %d→%d speedup %.2f, want ≥1.7 (cycles=%v)", cols[i-1], cols[i], gain, cycles)
		}
	}
}

func TestSinglePEPipelineFastest(t *testing.T) {
	// Fig. 13: on a fixed mesh, pipeline length 1 beats longer pipelines
	// under the paper's Fig. 9 protocol, where raw traffic crossing
	// interior pipeline PEs occupies their processor.
	data := smoothField(32*256, 6)
	eps := 1e-3
	var single float64
	for _, pl := range []int{1, 2, 4} {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{
			Mesh:           wse.Config{Rows: 1, Cols: 8},
			PipelineLen:    pl,
			ProcessorRelay: true, // paper-literal protocol
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if pl == 1 {
			single = res.ThroughputGBps
			continue
		}
		if res.ThroughputGBps >= single {
			t.Fatalf("pl=%d throughput %.4f not below single-PE %.4f", pl, res.ThroughputGBps, single)
		}
	}
}

func TestRouterRelayNarrowsPipelineGap(t *testing.T) {
	// Extension beyond the paper: when interior pipeline PEs route raw
	// traffic in the fabric (Fig. 3 static color routing) instead of their
	// processor, longer pipelines recover most of their relay losses —
	// the output stays byte-identical, only timing shifts.
	data := smoothField(32*256, 6)
	eps := 1e-3
	run := func(pl int, procRelay bool) *Result {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{
			Mesh:           wse.Config{Rows: 1, Cols: 8},
			PipelineLen:    pl,
			ProcessorRelay: procRelay,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	paper := run(2, true)
	routed := run(2, false)
	if !bytes.Equal(paper.Bytes, routed.Bytes) {
		t.Fatal("relay mode changed the output stream")
	}
	if routed.Cycles > paper.Cycles {
		t.Fatalf("router relay slower than processor relay: %d vs %d cycles", routed.Cycles, paper.Cycles)
	}
	// Interior PEs must have done their raw forwarding in the router.
	interior := routed.Mesh.PE(0, 1).Stats()
	if interior.Routed == 0 {
		t.Fatal("interior PE routed nothing")
	}
	if interior.RelayCycles != 0 {
		t.Fatalf("interior PE still paid %d relay cycles in router mode", interior.RelayCycles)
	}
	paperInterior := paper.Mesh.PE(0, 1).Stats()
	if paperInterior.RelayCycles == 0 {
		t.Fatal("paper-literal mode did not pay interior relay cycles")
	}
}

func TestRelayGrowsWithColumns(t *testing.T) {
	// Fig. 10(a): the relay time on the west-most PE grows linearly with
	// the number of columns.
	data := smoothField(32*512, 7)
	eps := 1e-3
	var relays []float64
	cols := []int{4, 8, 16}
	for _, tc := range cols {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: tc}, PipelineLen: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, float64(res.Mesh.PE(0, 0).Stats().RelayCycles))
	}
	// Per-block relay work on PE(0,0) is ∝ (P−1); with fixed total blocks
	// the total relay is ∝ (P−1)/P... normalize per handled block:
	// expect relays[i]/relays[i-1] ≈ (cols[i]-1)/(cols[i-1]-1) · (#blocks
	// ratio = cols[i-1]/cols[i]).
	for i := 1; i < len(relays); i++ {
		want := float64(cols[i]-1) / float64(cols[i-1]-1) * float64(cols[i-1]) / float64(cols[i])
		got := relays[i] / relays[i-1]
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("relay growth %0.2f, want ≈%0.2f (relays=%v)", got, want, relays)
		}
	}
}

// --- Analytic model ---

func TestModelMatchesSimulator(t *testing.T) {
	data := smoothField(32*512, 8)
	eps := 1e-3
	comp, stats, err := core.CompressWithEps(nil, data, eps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = comp
	for _, tc := range []struct {
		mesh wse.Config
		pl   int
	}{
		{wse.Config{Rows: 1, Cols: 4}, 1},
		{wse.Config{Rows: 2, Cols: 8}, 1},
		{wse.Config{Rows: 1, Cols: 8}, 2},
		{wse.Config{Rows: 2, Cols: 6}, 3},
	} {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{Mesh: tc.mesh, PipelineLen: tc.pl})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{
			Blocks:           stats.Blocks,
			Elements:         len(data),
			WidthHist:        stats.WidthHistogram,
			VerbatimBlocks:   stats.VerbatimBlocks,
			AvgInputWavelets: 32,
		}
		proj, err := plan.Project(w)
		if err != nil {
			t.Fatal(err)
		}
		ratio := proj.TotalCycles / float64(res.Cycles)
		if ratio < 0.7 || ratio > 1.4 {
			t.Fatalf("mesh %dx%d pl=%d: model %.0f vs sim %d cycles (ratio %.2f)",
				tc.mesh.Rows, tc.mesh.Cols, tc.pl, proj.TotalCycles, res.Cycles, ratio)
		}
	}
}

func TestProjectValidation(t *testing.T) {
	chain := compressChain(t, 1e-3, 8)
	plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 4}, PipelineLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Project(Workload{Blocks: 0}); err == nil {
		t.Fatal("accepted empty workload")
	}
	w := UniformWorkload(10, 320, 12, 32)
	w.WidthHist[12] = 5 // break the histogram
	if _, err := plan.Project(w); err == nil {
		t.Fatal("accepted inconsistent histogram")
	}
}

func TestUniformWorkload(t *testing.T) {
	w := UniformWorkload(100, 3200, 13, 32)
	if w.WidthHist[13] != 100 || w.Blocks != 100 || w.Elements != 3200 {
		t.Fatalf("bad uniform workload %+v", w)
	}
}

// --- Plan validation ---

func TestNewPlanValidation(t *testing.T) {
	chain := compressChain(t, 1e-3, 4)
	cases := []PlanConfig{
		{Mesh: wse.Config{Rows: 1, Cols: 4}, PipelineLen: 0},
		{Mesh: wse.Config{Rows: 0, Cols: 4}, PipelineLen: 1},
		{Mesh: wse.Config{Rows: 1, Cols: 2}, PipelineLen: 3},
		{Mesh: wse.Config{Rows: 1, Cols: 64}, PipelineLen: 50}, // > #stages
	}
	for i, cfg := range cases {
		if _, err := NewPlan(chain, cfg); err == nil {
			t.Fatalf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := NewPlan(nil, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 1}, PipelineLen: 1}); err == nil {
		t.Fatal("accepted nil chain")
	}
}

func TestMemoryBudgetRejection(t *testing.T) {
	// A giant block cannot fit one PE's 48 KB at pipeline length 1.
	chain, err := stages.NewCompressChain(stages.Config{BlockLen: 4096, Eps: 1e-3, EstWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 1, MemPerPE: 8 * 1024}, PipelineLen: 1})
	if err == nil {
		t.Fatal("plan accepted a block state exceeding PE memory")
	}
}

func TestDescribe(t *testing.T) {
	chain := compressChain(t, 1e-3, 4)
	plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 4}, PipelineLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Describe(); len(s) == 0 {
		t.Fatal("empty description")
	}
	if plan.BottleneckCycles() <= 0 || plan.TotalCycles() <= 0 {
		t.Fatal("degenerate plan costs")
	}
	if g := plan.GroupOf(0); g.Len() == 0 {
		t.Fatal("first group empty")
	}
}

func TestDirectionMismatchErrors(t *testing.T) {
	cchain := compressChain(t, 1e-3, 4)
	plan, err := NewPlan(cchain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 1}, PipelineLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Decompress([]byte{}); err == nil {
		t.Fatal("Decompress on compress chain accepted")
	}
	dchain := decompressChain(t, 1e-3, 4)
	dplan, err := NewPlan(dchain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 1}, PipelineLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dplan.Compress(nil); err == nil {
		t.Fatal("Compress on decompress chain accepted")
	}
}

func TestDecompressStreamMismatch(t *testing.T) {
	data := smoothField(320, 9)
	comp, _, err := core.CompressWithEps(nil, data, 1e-3, core.Options{HeaderBytes: flenc.HeaderU8})
	if err != nil {
		t.Fatal(err)
	}
	// Plan built for u32 headers must reject a u8-header stream.
	dchain := decompressChain(t, 1e-3, 4)
	plan, err := NewPlan(dchain, PlanConfig{Mesh: wse.Config{Rows: 1, Cols: 1}, PipelineLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Decompress(comp); err == nil {
		t.Fatal("accepted mismatched stream header size")
	}
}

func TestSingleIngressMatchesDistributed(t *testing.T) {
	// Feeding everything through PE(0,0) must produce the identical stream
	// — only timing changes (the single west link serializes the input).
	data := smoothField(32*200, 12)
	eps := 1e-3
	run := func(single bool) *Result {
		chain := compressChain(t, eps, 8)
		plan, err := NewPlan(chain, PlanConfig{
			Mesh:          wse.Config{Rows: 4, Cols: 4},
			PipelineLen:   1,
			SingleIngress: single,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dist := run(false)
	single := run(true)
	if !bytes.Equal(dist.Bytes, single.Bytes) {
		t.Fatal("single-ingress stream differs")
	}
	// The single 32-bit ingress must cost measurable throughput even on a
	// compute-bound 4×4 mesh; at wafer scale the one link caps the whole
	// machine at ~3.4 GB/s, which is why the CS-2 dedicates edge PEs to
	// distributed routing (§5.1.1).
	if float64(single.Cycles) < 1.15*float64(dist.Cycles) {
		t.Fatalf("single ingress only %d vs distributed %d cycles; expected a penalty",
			single.Cycles, dist.Cycles)
	}
	// Row heads below row 0 must have received traffic via the column.
	for r := 1; r < 4; r++ {
		if single.Mesh.PE(r, 0).Stats().Handled == 0 {
			t.Fatalf("row %d head idle in single-ingress mode", r)
		}
	}
}

func TestSingleIngressDecompress(t *testing.T) {
	data := smoothField(32*120, 13)
	eps := 1e-3
	comp, _, err := core.CompressWithEps(nil, data, eps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := core.Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := decompressChain(t, eps, 8)
	plan, err := NewPlan(chain, PlanConfig{
		Mesh:          wse.Config{Rows: 3, Cols: 4},
		PipelineLen:   2,
		SingleIngress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if res.Data[i] != ref[i] {
			t.Fatalf("differs at %d", i)
		}
	}
}

func TestBlockLen64PipelineMatchesCore(t *testing.T) {
	// The simulated pipeline handles non-default block lengths too.
	data := smoothField(64*80+5, 14)
	eps := 1e-3
	ref, _, err := core.CompressWithEps(nil, data, eps, core.Options{BlockLen: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := stages.NewCompressChain(stages.Config{BlockLen: 64, Eps: eps, EstWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 2, Cols: 4}, PipelineLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Bytes, ref) {
		t.Fatal("L=64 simulated stream differs from host stream")
	}
}

func TestSingleIngressModelCap(t *testing.T) {
	// At wafer scale the single-ingress model must cap near the one-link
	// bandwidth: 4 B/cycle at 850 MHz = 3.4 GB/s.
	chain := compressChain(t, 1e-3, 8)
	plan, err := NewPlan(chain, PlanConfig{
		Mesh:          wse.Config{Rows: 512, Cols: 512},
		PipelineLen:   1,
		SingleIngress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := plan.Project(UniformWorkload(1<<20, 32<<20, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if proj.SteadyThroughputGBps > 3.5 {
		t.Fatalf("single-ingress projection %.2f GB/s above the one-link cap", proj.SteadyThroughputGBps)
	}
	// Distributed ingress on the same mesh must be orders of magnitude up.
	plan2, err := NewPlan(chain, PlanConfig{Mesh: wse.Config{Rows: 512, Cols: 512}, PipelineLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	proj2, err := plan2.Project(UniformWorkload(1<<20, 32<<20, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if proj2.SteadyThroughputGBps < 50*proj.SteadyThroughputGBps {
		t.Fatalf("distributed %.1f vs single %.1f GB/s: expected ≥50x", proj2.SteadyThroughputGBps, proj.SteadyThroughputGBps)
	}
}
