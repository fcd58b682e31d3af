// Package stages decomposes the CereSZ compression and decompression
// algorithms into the fine-grained sub-stages that the WSE mapping schedules
// onto processing elements (paper §4.2):
//
//	compression:    Mul → Add → Lorenzo → Sign → Max → GetLength →
//	                Shuffle[0] … Shuffle[k] → Emit
//	decompression:  Header → Unshuffle[0] … Unshuffle[k] → MergeSigns →
//	                PrefixSum → DeqMul
//
// Each sub-stage carries two things: a functional kernel that transforms a
// BlockState (the data really flowing through the simulated pipeline, so
// that the pipeline's output bytes are bit-identical to internal/core's),
// and a cycle-cost function drawn from a CostModel calibrated against the
// paper's profiles (Tables 1–3). The per-bit Shuffle/Unshuffle sub-stages
// are the divisible units that make balanced distribution possible; Lorenzo
// and the prefix sum are indivisible (paper §4.2).
package stages

import (
	"encoding/binary"
	"fmt"
	"math"

	"ceresz/internal/flenc"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// Direction distinguishes compression from decompression chains.
type Direction int

const (
	// Compress marks a compression chain.
	Compress Direction = iota
	// Decompress marks a decompression chain.
	Decompress
)

func (d Direction) String() string {
	if d == Compress {
		return "compress"
	}
	return "decompress"
}

// CostModel holds per-block cycle costs for a 32-element block; costs scale
// linearly with block length. The defaults are calibrated to the paper's
// measured profiles on the CS-2 (Tables 1–3): quantization splits into a
// multiplication (~83% of its time) and a rounding addition; Sign, Max and
// GetLength are constant; Bit-shuffle costs a uniform ~1976 cycles per
// effective bit (33609/17 ≈ 25675/13 ≈ 23694/12).
type CostModel struct {
	Mul           float64 // quantization multiply (Table 2)
	Add           float64 // quantization round  (Table 2)
	Lorenzo       float64 // first-order difference (Table 1)
	Sign          float64 // sign split (Table 3)
	Max           float64 // max of absolute values (Table 3)
	GetLength     float64 // effective-bit count (Table 3)
	ShufflePerBit float64 // one bit plane of Bit-shuffle (Table 3)
	Emit          float64 // assembling the output block message

	Header          float64 // parsing a block header + signs
	UnshufflePerBit float64 // one bit plane of reverse Bit-shuffle
	MergeSigns      float64 // reapplying signs
	PrefixSum       float64 // reverse Lorenzo (indivisible, paper §4.2)
	DeqMul          float64 // reverse quantization multiply (indivisible)
}

// DefaultCosts returns the CS-2-calibrated cost model.
//
// The reverse Bit-shuffle constant is set moderately below the forward
// one: the decompression direction writes whole bytes sequentially instead
// of scattering single bits, and the calibration reproduces the paper's
// observed decompression/compression throughput ratio (581.31/457.35 ≈
// 1.27, §5.2) at the system level together with the relay overhead.
func DefaultCosts() CostModel {
	return CostModel{
		Mul:           5078,
		Add:           1038,
		Lorenzo:       975,
		Sign:          1044,
		Max:           1037,
		GetLength:     1386,
		ShufflePerBit: 1976,
		Emit:          96,

		Header:          96,
		UnshufflePerBit: 1680,
		MergeSigns:      1044,
		PrefixSum:       975,
		DeqMul:          5078,
	}
}

// scale adjusts a 32-element cost to block length L.
func scale(c float64, L int) int64 {
	return int64(math.Round(c * float64(L) / 32))
}

// Config describes one (de)compression chain instance.
type Config struct {
	// BlockLen is the block size L (multiple of 8).
	BlockLen int
	// HeaderBytes is flenc.HeaderU32 or flenc.HeaderU8.
	HeaderBytes int
	// Eps is the resolved absolute error bound.
	Eps float64
	// EstWidth is the estimated fixed length used to decide how many
	// explicit per-bit Shuffle/Unshuffle sub-stages the chain exposes
	// (paper §4.2: 5% of the data is sampled to approximate it). Blocks
	// whose true width exceeds the estimate fold the surplus planes into
	// the final shuffle sub-stage. Must be ≥ 1.
	EstWidth int
	// Costs is the cycle-cost model; zero value selects DefaultCosts.
	Costs CostModel
}

func (c Config) withDefaults() Config {
	if c.BlockLen == 0 {
		c.BlockLen = 32
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = flenc.HeaderU32
	}
	if c.EstWidth <= 0 {
		c.EstWidth = 1
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockLen <= 0 || c.BlockLen%8 != 0 {
		return fmt.Errorf("stages: block length %d must be a positive multiple of 8", c.BlockLen)
	}
	if c.HeaderBytes != flenc.HeaderU32 && c.HeaderBytes != flenc.HeaderU8 {
		return fmt.Errorf("stages: unsupported header size %d", c.HeaderBytes)
	}
	if !(c.Eps > 0) {
		return fmt.Errorf("stages: non-positive ε %g", c.Eps)
	}
	if c.EstWidth < 1 || c.EstWidth > flenc.MaxWidth {
		return fmt.Errorf("stages: estimated width %d out of range [1,%d]", c.EstWidth, flenc.MaxWidth)
	}
	return nil
}

// BlockState is the unit of data flowing through a pipeline: one block in
// whatever representation the preceding sub-stages have produced. The
// simulated fabric transfers its Wavelets() between PEs; the kernels
// transform it in place.
type BlockState struct {
	// Raw holds the input floats during compression (padded to L) and the
	// reconstructed floats at the end of decompression.
	Raw []float32
	// Scaled holds e_i/(2ε) between Mul and Add.
	Scaled []float64
	// Codes holds quantization codes / Lorenzo residuals.
	Codes []int32
	// Abs, SignBits, MaxAbs, Width, Planes hold fixed-length-encoder state.
	Abs      []uint32
	SignBits []byte
	MaxAbs   uint32
	Width    uint
	Planes   []byte
	// Encoded holds the block's wire bytes (output of compression, input
	// of decompression).
	Encoded []byte
	// Verbatim marks a block stored raw.
	Verbatim bool

	phase phase
}

// phase tracks which representation is live, for Wavelets accounting.
type phase int

const (
	phaseRaw phase = iota
	phaseScaled
	phaseCodes
	phaseAbs
	phasePlanes
	phaseEncoded
)

// NewBlockState allocates the scratch for a block of length L.
func NewBlockState(L int) *BlockState {
	return &NewBlockStates(L, 1)[0]
}

// NewBlockStates allocates the scratch for n blocks of length L in six
// allocations, however large n is: the states share one backing array
// per element type. Each state's slices are capped at its own share, and
// Encoded has room for the largest block encoding, so no state ever
// grows into another's or reallocates.
func NewBlockStates(L, n int) []BlockState {
	sts := make([]BlockState, n)
	raw := make([]float32, n*L)
	scaled := make([]float64, n*L)
	codes := make([]int32, n*L)
	abs := make([]uint32, n*L)
	sb, pb := L/8, flenc.MaxWidth*L/8
	eb := max(flenc.EncodedSize(flenc.MaxWidth, L, flenc.HeaderU32), flenc.VerbatimSize(L, flenc.HeaderU32))
	buf := make([]byte, n*(sb+pb+eb))
	for i := range sts {
		lo, b := i*L, buf[i*(sb+pb+eb):(i+1)*(sb+pb+eb)]
		sts[i] = BlockState{
			Raw:      raw[lo : lo+L : lo+L],
			Scaled:   scaled[lo : lo+L : lo+L],
			Codes:    codes[lo : lo+L : lo+L],
			Abs:      abs[lo : lo+L : lo+L],
			SignBits: b[:sb:sb],
			Planes:   b[sb : sb+pb : sb+pb],
			Encoded:  b[sb+pb : sb+pb : sb+pb+eb],
		}
	}
	return sts
}

// ResetForCompress loads a raw block (≤ L elements; zero-padded) into the
// state for a fresh compression pass.
func (st *BlockState) ResetForCompress(block []float32) {
	copy(st.Raw, block)
	for i := len(block); i < len(st.Raw); i++ {
		st.Raw[i] = 0
	}
	st.Verbatim = false
	st.MaxAbs = 0
	st.Width = 0
	st.Encoded = st.Encoded[:0]
	st.phase = phaseRaw
}

// ResetForDecompress loads an encoded block into the state.
func (st *BlockState) ResetForDecompress(encoded []byte) {
	st.Encoded = append(st.Encoded[:0], encoded...)
	st.Verbatim = false
	st.MaxAbs = 0
	st.Width = 0
	st.phase = phaseEncoded
}

// Wavelets returns the size of the state's live representation in 32-bit
// fabric words — the amount of data a PE must forward to its neighbor when
// handing the block off. The scaled representation counts as one word per
// element (the CS-2 pipeline keeps it in f32).
func (st *BlockState) Wavelets() int {
	L := len(st.Raw)
	switch st.phase {
	case phaseRaw, phaseScaled, phaseCodes:
		return L
	case phaseAbs:
		// abs values + packed signs (rounded up to whole words)
		return L + (L/8+3)/4
	case phasePlanes:
		if st.Verbatim {
			return L
		}
		// planes so far + signs + width word
		return (len(st.Planes)+3)/4 + (L/8+3)/4 + 1
	case phaseEncoded:
		return (len(st.Encoded) + 3) / 4
	default:
		return L
	}
}

// Stage is one schedulable sub-stage.
type Stage struct {
	// Name identifies the sub-stage (e.g. "Mul", "Shuffle[3]").
	Name string
	// Cycles returns the cost of running this sub-stage on st.
	Cycles func(st *BlockState) int64
	// Run applies the sub-stage's computation to st.
	Run func(st *BlockState)
	// Divisible reports whether the stage may be split further; only the
	// aggregate Shuffle/Unshuffle stages are (they are pre-split here, so
	// all emitted stages report false, matching Alg. 1's input granularity).
	Divisible bool
}

// Chain is an ordered list of sub-stages plus its configuration.
type Chain struct {
	Dir    Direction
	Cfg    Config
	Stages []Stage

	q *quant.Quantizer
}

// NewCompressChain builds the compression sub-stage chain for cfg.
func NewCompressChain(cfg Config) (*Chain, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q, err := quant.NewQuantizer(cfg.Eps)
	if err != nil {
		return nil, err
	}
	c := &Chain{Dir: Compress, Cfg: cfg, q: q}
	L := cfg.BlockLen
	cm := cfg.Costs

	c.Stages = append(c.Stages,
		Stage{
			Name:   "Mul",
			Cycles: constCost(scale(cm.Mul, L)),
			Run: func(st *BlockState) {
				quant.Mul(q, st.Scaled, st.Raw)
				st.phase = phaseScaled
			},
		},
		Stage{
			Name:   "Add",
			Cycles: constCost(scale(cm.Add, L)),
			Run: func(st *BlockState) {
				if !quant.Round(st.Codes, st.Scaled) {
					st.Verbatim = true
					st.phase = phaseRaw
					return
				}
				// Strict float32 bound check (see internal/core).
				for i, p := range st.Codes {
					rec := float32(float64(p) * q.TwoEps())
					if !(math.Abs(float64(rec)-float64(st.Raw[i])) <= q.Eps()) {
						st.Verbatim = true
						st.phase = phaseRaw
						return
					}
				}
				st.phase = phaseCodes
			},
		},
		Stage{
			Name:   "Lorenzo",
			Cycles: skipVerbatim(constCost(scale(cm.Lorenzo, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				lorenzo.Forward(st.Codes, st.Codes)
			},
		},
		Stage{
			Name:   "Sign",
			Cycles: skipVerbatim(constCost(scale(cm.Sign, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				flenc.SplitSigns(st.Abs, st.SignBits, st.Codes)
				st.phase = phaseAbs
			},
		},
		Stage{
			Name:   "Max",
			Cycles: skipVerbatim(constCost(scale(cm.Max, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				st.MaxAbs = flenc.MaxAbs(st.Abs)
			},
		},
		Stage{
			Name:   "GetLength",
			Cycles: skipVerbatim(constCost(scale(cm.GetLength, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				st.Width = flenc.Width(st.MaxAbs)
				st.Planes = st.Planes[:0]
				st.phase = phasePlanes
			},
		},
	)

	pb := flenc.PlaneBytes(L)
	perBit := scale(cm.ShufflePerBit, L)
	for k := 0; k < cfg.EstWidth; k++ {
		k := k
		last := k == cfg.EstWidth-1
		c.Stages = append(c.Stages, Stage{
			Name: fmt.Sprintf("Shuffle[%d]", k),
			Cycles: func(st *BlockState) int64 {
				if st.Verbatim || uint(k) >= st.Width {
					return 0
				}
				n := int64(1)
				if last && st.Width > uint(cfg.EstWidth) {
					n += int64(st.Width) - int64(cfg.EstWidth)
				}
				return n * perBit
			},
			Run: func(st *BlockState) {
				if st.Verbatim || uint(k) >= st.Width {
					return
				}
				hi := k + 1
				if last && st.Width > uint(cfg.EstWidth) {
					hi = int(st.Width)
				}
				for p := k; p < hi; p++ {
					// ShufflePlane overwrites the whole plane, so extend
					// without zeroing or allocating: NewBlockStates gives
					// Planes room for MaxWidth planes.
					st.Planes = st.Planes[:len(st.Planes)+pb]
					flenc.ShufflePlane(st.Planes[p*pb:(p+1)*pb], st.Abs, uint(p))
				}
			},
		})
	}

	c.Stages = append(c.Stages, Stage{
		Name:   "Emit",
		Cycles: constCost(scale(cm.Emit, L)),
		Run: func(st *BlockState) {
			st.Encoded = st.Encoded[:0]
			if st.Verbatim {
				st.Encoded = appendVerbatimHeader(st.Encoded, cfg.HeaderBytes)
				st.Encoded = rawfloat.Append(st.Encoded, st.Raw)
				st.phase = phaseEncoded
				return
			}
			if st.Width == 0 {
				st.Encoded = appendWidthHeader(st.Encoded, cfg.HeaderBytes, 0)
				st.phase = phaseEncoded
				return
			}
			st.Encoded = appendWidthHeader(st.Encoded, cfg.HeaderBytes, st.Width)
			st.Encoded = append(st.Encoded, st.SignBits...)
			st.Encoded = append(st.Encoded, st.Planes...)
			st.phase = phaseEncoded
		},
	})

	return c, nil
}

// NewDecompressChain builds the decompression sub-stage chain for cfg.
func NewDecompressChain(cfg Config) (*Chain, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q, err := quant.NewQuantizer(cfg.Eps)
	if err != nil {
		return nil, err
	}
	c := &Chain{Dir: Decompress, Cfg: cfg, q: q}
	L := cfg.BlockLen
	cm := cfg.Costs
	pb := flenc.PlaneBytes(L)

	c.Stages = append(c.Stages, Stage{
		Name:   "Header",
		Cycles: constCost(scale(cm.Header, L)),
		Run: func(st *BlockState) {
			v, n, err := flenc.Header(st.Encoded, cfg.HeaderBytes)
			if err != nil {
				panic(fmt.Sprintf("stages: %v", err)) // pipeline feeds whole blocks
			}
			switch {
			case v == flenc.VerbatimU32:
				st.Verbatim = true
				rawfloat.Decode(st.Raw, st.Encoded[n:])
				st.phase = phaseRaw
			case v == flenc.ZeroMarker:
				st.Width = 0
				for i := range st.Abs {
					st.Abs[i] = 0
				}
				for i := range st.SignBits {
					st.SignBits[i] = 0
				}
				st.phase = phaseAbs
			default:
				st.Width = uint(v)
				copy(st.SignBits, st.Encoded[n:n+pb])
				st.Planes = st.Planes[:int(st.Width)*pb]
				copy(st.Planes, st.Encoded[n+pb:])
				for i := range st.Abs {
					st.Abs[i] = 0
				}
				st.phase = phasePlanes
			}
		},
	})

	perBit := scale(cm.UnshufflePerBit, L)
	for k := 0; k < cfg.EstWidth; k++ {
		k := k
		last := k == cfg.EstWidth-1
		c.Stages = append(c.Stages, Stage{
			Name: fmt.Sprintf("Unshuffle[%d]", k),
			Cycles: func(st *BlockState) int64 {
				if st.Verbatim || uint(k) >= st.Width {
					return 0
				}
				n := int64(1)
				if last && st.Width > uint(cfg.EstWidth) {
					n += int64(st.Width) - int64(cfg.EstWidth)
				}
				return n * perBit
			},
			Run: func(st *BlockState) {
				if st.Verbatim || uint(k) >= st.Width {
					return
				}
				hi := k + 1
				if last && st.Width > uint(cfg.EstWidth) {
					hi = int(st.Width)
				}
				for p := k; p < hi; p++ {
					flenc.UnshufflePlane(st.Abs, st.Planes[p*pb:(p+1)*pb], uint(p))
				}
			},
		})
	}

	c.Stages = append(c.Stages,
		Stage{
			Name:   "MergeSigns",
			Cycles: skipVerbatim(constCost(scale(cm.MergeSigns, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				flenc.MergeSigns(st.Codes, st.Abs, st.SignBits)
				st.phase = phaseCodes
			},
		},
		Stage{
			Name:   "PrefixSum",
			Cycles: skipVerbatim(constCost(scale(cm.PrefixSum, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				lorenzo.Inverse(st.Codes, st.Codes)
			},
		},
		Stage{
			Name:   "DeqMul",
			Cycles: skipVerbatim(constCost(scale(cm.DeqMul, L))),
			Run: func(st *BlockState) {
				if st.Verbatim {
					return
				}
				q.Dequantize(st.Raw, st.Codes)
				st.phase = phaseRaw
			},
		},
	)

	return c, nil
}

// RunAll applies every sub-stage in order — the sequential reference
// execution of the chain. It returns the total modeled cycles.
func (c *Chain) RunAll(st *BlockState) int64 {
	var total int64
	for i := range c.Stages {
		total += c.Stages[i].Cycles(st)
		c.Stages[i].Run(st)
	}
	return total
}

// TotalCycles sums the cost of all sub-stages for a block in state st
// without running them. It is only meaningful on a fresh state (costs that
// depend on Width use the state's current Width, which for compression is
// unknown until GetLength runs — use EstimateCycles for planning).
func (c *Chain) TotalCycles(st *BlockState) int64 {
	var total int64
	for i := range c.Stages {
		total += c.Stages[i].Cycles(st)
	}
	return total
}

// StageNames returns the names of the chain's sub-stages in order.
func (c *Chain) StageNames() []string {
	names := make([]string, len(c.Stages))
	for i := range c.Stages {
		names[i] = c.Stages[i].Name
	}
	return names
}

// EstimateCycles returns the planning-time cost of each sub-stage assuming
// every block has fixed length width (paper §4.2: the width is approximated
// by sampling 5% of the data). These estimates feed Alg. 1.
func (c *Chain) EstimateCycles(width uint) []int64 {
	st := NewBlockState(c.Cfg.BlockLen)
	st.Width = width
	st.phase = phasePlanes
	out := make([]int64, len(c.Stages))
	for i := range c.Stages {
		out[i] = c.Stages[i].Cycles(st)
	}
	return out
}

// EstimateWidth samples every strideth block of data and returns the
// maximum observed fixed length (≥ 1), the paper's planning statistic.
func EstimateWidth(data []float32, eps float64, L, stride int) (uint, error) {
	if stride < 1 {
		stride = 1
	}
	chain, err := NewCompressChain(Config{BlockLen: L, Eps: eps})
	if err != nil {
		return 0, err
	}
	st := NewBlockState(L)
	var w uint = 1
	nBlocks := (len(data) + L - 1) / L
	for b := 0; b < nBlocks; b += stride {
		lo := b * L
		hi := lo + L
		if hi > len(data) {
			hi = len(data)
		}
		st.ResetForCompress(data[lo:hi])
		chain.RunAll(st)
		if !st.Verbatim && st.Width > w {
			w = st.Width
		}
	}
	return w, nil
}

func constCost(c int64) func(*BlockState) int64 {
	return func(*BlockState) int64 { return c }
}

func skipVerbatim(f func(*BlockState) int64) func(*BlockState) int64 {
	return func(st *BlockState) int64 {
		if st.Verbatim {
			return 0
		}
		return f(st)
	}
}

func appendWidthHeader(dst []byte, headerBytes int, w uint) []byte {
	switch headerBytes {
	case flenc.HeaderU32:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(w))
		return append(dst, b[:]...)
	case flenc.HeaderU8:
		return append(dst, byte(w))
	default:
		panic(fmt.Sprintf("stages: unsupported header size %d", headerBytes))
	}
}

func appendVerbatimHeader(dst []byte, headerBytes int) []byte {
	switch headerBytes {
	case flenc.HeaderU32:
		return append(dst, 0xFF, 0xFF, 0xFF, 0xFF)
	case flenc.HeaderU8:
		return append(dst, flenc.VerbatimU8)
	default:
		panic(fmt.Sprintf("stages: unsupported header size %d", headerBytes))
	}
}
