package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
)

func TestPercentileRule(t *testing.T) {
	var s []float64
	for i := 200; i >= 1; i-- {
		s = append(s, float64(i))
	}
	p := percentile(s, 95)
	if p.value != 190 || p.beyond != 10 || !p.enough() {
		t.Fatalf("p95 of 1..200 = %+v, want 190 with 10 beyond", p)
	}
	if p := percentile(s[1:], 95); p.beyond != 9 || p.enough() {
		t.Fatalf("p95 of 199 samples = %+v, want 9 beyond and not enough", p)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Fatalf("median = %v, want the nearest-rank 2", got)
	}
	if p := percentile(nil, 95); p.n != 0 || p.enough() {
		t.Fatalf("empty percentile = %+v", p)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) *span {
		return &span{start: t0.Add(time.Duration(a)), end: t0.Add(time.Duration(b))}
	}
	parent := at(0, 100)
	cases := []struct {
		kids []*span
		want time.Duration
	}{
		{nil, 100},
		{[]*span{at(10, 30)}, 80},
		{[]*span{at(10, 30), at(20, 40)}, 70},              // overlap counts once
		{[]*span{at(10, 30), at(20, 40), at(90, 120)}, 60}, // clipped to the parent
		{[]*span{at(-10, 200)}, 0},
		{[]*span{at(40, 50), at(10, 20)}, 80}, // order does not matter
	}
	for i, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("case %d: self time %v, want %v", i, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricTables checks every metric name and unit against the
// benchmark contract's charset and BENCHMARK.json against the tables
// the program reports from.
func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q outside the allowed charset", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
	}
	modules := map[string]bool{"client": true, "cluster": true, "server": true, "chunkcache": true, "core": true,
		"flenc": true, "hostpool": true, "stages": true, "mapping": true, "wse": true, "telemetry": true, "proc": true}
	for _, m := range perLayer {
		mod, _, _ := strings.Cut(m.name, ".")
		if !modules[mod] || m.target == "" || len(m.on) == 0 {
			t.Errorf("per-layer metric %q lacks its module, target or workloads", m.name)
		}
	}
	var maxBound float64
	for _, m := range endToEnd {
		if !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("metric %q bound %v outside (0, 0.25]", m.name, m.bound)
		}
		maxBound = max(maxBound, m.bound)
	}
	if b := endToEnd[len(endToEnd)-1]; b.name != "setup_s" || b.unit != "s" || b.better != "lower" || b.bound != maxBound {
		t.Errorf("setup_s must be lower-is-better seconds with the largest bound, got %+v", b)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v vs program %q", i, w, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, p)
		}
	}
	for i, m := range bf.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, p)
		}
	}
}

func TestParseStages(t *testing.T) {
	got, ok := parseStages("admit;dur=0.012, worker;dur=0.000, read;dur=1.500, cache;dur=0.250, codec;dur=10.000, write;dur=0.125, total;dur=12.000")
	want := [len(stageNames)]time.Duration{12 * time.Microsecond, 0, 1500 * time.Microsecond, 250 * time.Microsecond, 10 * time.Millisecond, 125 * time.Microsecond}
	if !ok || got != want {
		t.Fatalf("parseStages = %v %v, want %v", got, ok, want)
	}
	if _, ok := parseStages(""); ok {
		t.Fatal("an absent trailer parsed as complete")
	}
}

// TestUniqueBodiesNeverRepeat draws serve-unique bodies from two client
// streams and checks that no chunk repeats in either cache direction: the
// raw chunk (compress key) and its compressed frame (decompress key).
func TestUniqueBodiesNeverRepeat(t *testing.T) {
	g, err := newPayloadGen(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := chunkcache.NewHasher()
	raw := map[chunkcache.Key]bool{}
	frames := map[[32]byte]bool{}
	buf := make([]float32, payloadElems)
	var b, comp []byte
	var st ceresz.Stats
	for i := 0; i < 24; i++ {
		p, err := g.next(i%2, buf)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < payloadElems; off += chunkElems {
			chunk := p.data[off : off+chunkElems]
			b = f32Bytes(b[:0], chunk)
			k := chunkKey(h, p.eps, b)
			if raw[k] {
				t.Fatalf("body %d chunk %d repeats a raw chunk", i, off/chunkElems)
			}
			raw[k] = true
			if comp, err = ceresz.CompressInto(comp[:0], chunk, ceresz.ABS(p.eps), ceresz.Options{Workers: 1}, &st); err != nil {
				t.Fatal(err)
			}
			d := sha256.Sum256(comp)
			if frames[d] {
				t.Fatalf("body %d chunk %d repeats a compressed frame", i, off/chunkElems)
			}
			frames[d] = true
		}
	}
}

// TestHotSetReachesBothBackends checks the fleet-repeat hot set: exactly
// hotSetSize routing digests, owned by both backends, for several seeds.
func TestHotSetReachesBothBackends(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, err := newPayloadGen(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := g.hotSet(seed)
		if err != nil {
			t.Fatal(err)
		}
		distinct, owners := hotSetOwners(hot, 2)
		reached := map[int]bool{}
		for _, o := range owners {
			reached[o] = true
		}
		if distinct != hotSetSize || len(reached) != 2 {
			t.Errorf("seed %d: %d digests reaching backends %v", seed, distinct, owners)
		}
	}
}

// TestSeedDeterminesInputs checks that a seed reproduces its bodies and
// another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	body := func(seed int64) []float32 {
		g, err := newPayloadGen(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.next(0, make([]float32, payloadElems))
		if err != nil {
			t.Fatal(err)
		}
		return p.data
	}
	a, b, c := body(7), body(7), body(8)
	same := func(x, y []float32) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("seed 7 produced two different bodies")
	}
	if same(a, c) {
		t.Fatal("seeds 7 and 8 produced the same body")
	}
}

// TestNormalization checks the probe lookup: an operation is scaled by the
// mean of the probes within probeSlack of its interval, and one with no
// probe near it is an error rather than an unscaled time.
func TestNormalization(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &speedProbe{}
	for i, slow := range []float64{1, 1, 2, 2, 2, 1} {
		p.probes = append(p.probes, probe{at: t0.Add(time.Duration(i) * 100 * time.Millisecond), d: time.Duration(slow * float64(probeNominal))})
	}
	cases := []struct {
		start time.Time
		wall  time.Duration
		want  time.Duration
	}{
		{t0, time.Millisecond, 10 * time.Millisecond},                                  // fast probe only
		{t0.Add(250 * time.Millisecond), 100 * time.Millisecond, 5 * time.Millisecond}, // slow probes only
		{t0, 300 * time.Millisecond, 10 * time.Millisecond * 4 / 6},                    // mean slowdown 1.5
	}
	for i, c := range cases {
		got, err := p.norm(opTime{start: c.start, wall: c.wall, cpu: 10 * time.Millisecond})
		if err != nil || got != c.want {
			t.Errorf("case %d: norm = %v, %v; want %v", i, got, err, c.want)
		}
	}
	if _, err := p.norm(opTime{start: t0.Add(time.Hour), wall: time.Millisecond, cpu: time.Millisecond}); err == nil {
		t.Error("an operation with no probe near it was normalized")
	}
}

// TestPinning checks that pinning leaves one CPU and release restores the
// original set.
func TestPinning(t *testing.T) {
	before, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	pin, err := pinCPU()
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	if err := pin.release(); err != nil {
		t.Fatal(err)
	}
	bits := 0
	for _, w := range pinned {
		for ; w != 0; w &= w - 1 {
			bits++
		}
	}
	if bits != 1 || pinned[pin.cpu/64]&(1<<(pin.cpu%64)) == 0 {
		t.Errorf("pinned mask %x, want only CPU %d", pinned, pin.cpu)
	}
	if after, err := getAffinity(); err != nil || after != before {
		t.Errorf("after release the mask is %x (%v), want %x", after, err, before)
	}
}
