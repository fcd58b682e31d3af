package ceresz

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ceresz/internal/core"
	"ceresz/internal/lorenzo"
	"ceresz/internal/telemetry"
)

// Bundle instruments (Default registry; active after EnableTelemetry).
var (
	telBundleAdd  = telemetry.T("bundle.add_field")
	telBundleRead = telemetry.T("bundle.read_field")
)

// Bundles: a whole multi-field dataset (Table 4 datasets have up to 79
// fields) compressed into one self-describing file with an index, so any
// field can be decompressed without touching the others. Layout:
//
//	offset size  field
//	0      4     magic "CSZB"
//	4      4     version (1) + field count packed as u8 version, u24 count
//	8      …     index: per field u16 nameLen, name bytes, u32 Nx, u32 Ny,
//	             u32 Nz, u64 stream offset (from body start), u64 length
//	…      …     body: concatenated CereSZ streams
//
// Each member stream is an ordinary container (Compress/Compress64), so a
// member extracted by offset is decodable on its own.

var bundleMagic = [4]byte{'C', 'S', 'Z', 'B'}

const bundleVersion = 1

// Dims describes a field's grid in bundle metadata (row-major, Nx fastest;
// unused dims are 1).
type Dims = lorenzo.Dims

// Dims1, Dims2 and Dims3 build grid descriptors.
var (
	Dims1 = lorenzo.Dims1
	Dims2 = lorenzo.Dims2
	Dims3 = lorenzo.Dims3
)

// BundleField describes one indexed member.
type BundleField struct {
	// Name is the field's identifier within the bundle.
	Name string
	// Dims is the field's grid.
	Dims Dims
	// Elem is the element type.
	Elem Elem
	// CompressedBytes is the member stream's size.
	CompressedBytes int
	// Eps is the member's resolved absolute bound.
	Eps float64
}

// BundleWriter accumulates compressed fields and assembles the bundle.
// Member streams are compressed back to back into one contiguous arena —
// one growing buffer for the whole bundle instead of a fresh slice per
// field, so adding N fields costs O(log) buffer growths rather than N
// allocations sized to each stream. Not safe for concurrent use.
type BundleWriter struct {
	fields []BundleField
	arena  []byte   // concatenated member streams (the future body)
	spans  [][2]int // per-field [start, end) into arena
	stats  Stats    // scratch for the *Into compression calls
	names  map[string]bool
}

// NewBundleWriter returns an empty bundle writer.
func NewBundleWriter() *BundleWriter {
	return &BundleWriter{names: map[string]bool{}}
}

// AddField compresses a float32 field under bound and indexes it.
func (bw *BundleWriter) AddField(name string, dims Dims, data []float32, bound Bound, opts Options) (*Stats, error) {
	return addField(bw, name, dims, data, bound, opts)
}

// AddField64 compresses a float64 field under bound and indexes it.
func (bw *BundleWriter) AddField64(name string, dims Dims, data []float64, bound Bound, opts Options) (*Stats, error) {
	return addField(bw, name, dims, data, bound, opts)
}

func addField[T core.Float](bw *BundleWriter, name string, dims Dims, data []T, bound Bound, opts Options) (*Stats, error) {
	defer telBundleAdd.Start().End()
	if err := bw.checkName(name); err != nil {
		return nil, err
	}
	if err := dims.Validate(len(data)); err != nil {
		return nil, err
	}
	start := len(bw.arena)
	arena, err := core.CompressInto(bw.arena, data, opts.coreOptions(bound), &bw.stats)
	if err != nil {
		return nil, err
	}
	bw.arena = arena
	bw.push(name, dims, bw.stats.Elem, start, len(arena), bw.stats.Eps)
	out := bw.stats
	return &out, nil
}

func (bw *BundleWriter) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("ceresz: empty field name")
	}
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("ceresz: field name %q too long", name[:32])
	}
	if bw.names[name] {
		return fmt.Errorf("ceresz: duplicate field %q", name)
	}
	return nil
}

func (bw *BundleWriter) push(name string, dims Dims, elem Elem, start, end int, eps float64) {
	bw.names[name] = true
	bw.fields = append(bw.fields, BundleField{
		Name: name, Dims: dims, Elem: elem,
		CompressedBytes: end - start, Eps: eps,
	})
	bw.spans = append(bw.spans, [2]int{start, end})
}

// Bytes assembles the bundle in one exactly-sized allocation: the index is
// computable from the field table alone and the body is the arena.
func (bw *BundleWriter) Bytes() ([]byte, error) {
	if len(bw.fields) == 0 {
		return nil, fmt.Errorf("ceresz: empty bundle")
	}
	if len(bw.fields) >= 1<<24 {
		return nil, fmt.Errorf("ceresz: too many fields (%d)", len(bw.fields))
	}
	size := 8
	for _, f := range bw.fields {
		size += 2 + len(f.Name) + 12 + 16
	}
	size += len(bw.arena)
	out := make([]byte, 0, size)
	out = append(out, bundleMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(bundleVersion)|uint32(len(bw.fields))<<8)
	var off uint64
	for i, f := range bw.fields {
		n := uint64(bw.spans[i][1] - bw.spans[i][0])
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Name)))
		out = append(out, f.Name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(f.Dims.Nx))
		out = binary.LittleEndian.AppendUint32(out, uint32(f.Dims.Ny))
		out = binary.LittleEndian.AppendUint32(out, uint32(f.Dims.Nz))
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, n)
		off += n
	}
	out = append(out, bw.arena...)
	return out, nil
}

// BundleReader provides random access to a bundle's members.
type BundleReader struct {
	fields []BundleField
	byName map[string]int
	body   []byte
	spans  [][2]uint64
}

// minIndexEntryBytes is the smallest possible per-field index entry: a
// u16 name length (empty name rejected later), three u32 dims, u64 offset
// and u64 length.
const minIndexEntryBytes = 2 + 12 + 16

// OpenBundle parses a bundle's index. The data is not copied.
func OpenBundle(b []byte) (*BundleReader, error) {
	return OpenBundleLimited(b, 0, 0)
}

// OpenBundleLimited is OpenBundle with decode limits for untrusted input:
// maxFieldBytes caps any member stream's compressed size and
// maxFieldElements caps any member's declared element count (0 leaves the
// respective limit off). Violations surface as ErrFrameTooLarge during
// index validation, before any member is decompressed; truncation surfaces
// as ErrTruncated.
func OpenBundleLimited(b []byte, maxFieldBytes, maxFieldElements int) (*BundleReader, error) {
	if len(b) < 8 || [4]byte(b[0:4]) != bundleMagic {
		return nil, fmt.Errorf("ceresz: not a bundle")
	}
	vc := binary.LittleEndian.Uint32(b[4:])
	if v := vc & 0xFF; v != bundleVersion {
		return nil, fmt.Errorf("ceresz: unsupported bundle version %d", v)
	}
	count := int(vc >> 8)
	// A count the remaining bytes cannot possibly index is hostile or
	// corrupt; reject it before sizing anything by it.
	if count*minIndexEntryBytes > len(b)-8 {
		return nil, fmt.Errorf("%w: bundle declares %d fields, %d bytes cannot index them",
			ErrTruncated, count, len(b))
	}
	br := &BundleReader{byName: make(map[string]int, count)}
	pos := 8
	need := func(k int) error {
		if len(b)-pos < k {
			return fmt.Errorf("%w: bundle index at %d", ErrTruncated, pos)
		}
		return nil
	}
	for i := 0; i < count; i++ {
		if err := need(2); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if err := need(nameLen + 12 + 16); err != nil {
			return nil, err
		}
		name := string(b[pos : pos+nameLen])
		pos += nameLen
		d := Dims{
			Nx: int(binary.LittleEndian.Uint32(b[pos:])),
			Ny: int(binary.LittleEndian.Uint32(b[pos+4:])),
			Nz: int(binary.LittleEndian.Uint32(b[pos+8:])),
		}
		pos += 12
		off := binary.LittleEndian.Uint64(b[pos:])
		ln := binary.LittleEndian.Uint64(b[pos+8:])
		pos += 16
		if _, dup := br.byName[name]; dup {
			return nil, fmt.Errorf("ceresz: duplicate bundle field %q", name)
		}
		br.byName[name] = i
		br.fields = append(br.fields, BundleField{Name: name, Dims: d})
		br.spans = append(br.spans, [2]uint64{off, ln})
	}
	br.body = b[pos:]
	// Validate spans and fill per-field metadata from the member headers.
	for i, sp := range br.spans {
		end := sp[0] + sp[1]
		if end < sp[0] || end > uint64(len(br.body)) || sp[1] == 0 {
			return nil, fmt.Errorf("%w: bundle member %q overruns body", ErrTruncated, br.fields[i].Name)
		}
		if maxFieldBytes > 0 && sp[1] > uint64(maxFieldBytes) {
			return nil, fmt.Errorf("%w: bundle member %q is %d bytes, cap is %d",
				ErrFrameTooLarge, br.fields[i].Name, sp[1], maxFieldBytes)
		}
		member := br.body[sp[0]:end]
		meta, err := core.ParseHeader(member)
		if err != nil {
			return nil, fmt.Errorf("ceresz: bundle member %q: %w", br.fields[i].Name, err)
		}
		if maxFieldElements > 0 && meta.Elements > maxFieldElements {
			return nil, fmt.Errorf("%w: bundle member %q declares %d elements, cap is %d",
				ErrFrameTooLarge, br.fields[i].Name, meta.Elements, maxFieldElements)
		}
		if len(member) < meta.MinStreamBytes() {
			return nil, fmt.Errorf("%w: bundle member %q declares %d elements, %d bytes cannot hold them",
				ErrTruncated, br.fields[i].Name, meta.Elements, len(member))
		}
		if br.fields[i].Dims.Len() != meta.Elements {
			return nil, fmt.Errorf("ceresz: bundle member %q: dims say %d elements, stream has %d",
				br.fields[i].Name, br.fields[i].Dims.Len(), meta.Elements)
		}
		br.fields[i].Elem = meta.Elem
		br.fields[i].Eps = meta.Eps
		br.fields[i].CompressedBytes = int(sp[1])
	}
	return br, nil
}

// Fields lists the members in index order.
func (br *BundleReader) Fields() []BundleField {
	out := make([]BundleField, len(br.fields))
	copy(out, br.fields)
	return out
}

// Names lists the member names, sorted.
func (br *BundleReader) Names() []string {
	out := make([]string, 0, len(br.byName))
	for n := range br.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// member returns the named member's raw stream.
func (br *BundleReader) member(name string) ([]byte, BundleField, error) {
	i, ok := br.byName[name]
	if !ok {
		return nil, BundleField{}, fmt.Errorf("ceresz: bundle has no field %q (have %v)", name, br.Names())
	}
	sp := br.spans[i]
	return br.body[sp[0] : sp[0]+sp[1]], br.fields[i], nil
}

// ReadField decompresses a float32 member.
func (br *BundleReader) ReadField(name string) ([]float32, BundleField, error) {
	return readField[float32](br, name, "ReadField64")
}

// ReadField64 decompresses a float64 member.
func (br *BundleReader) ReadField64(name string) ([]float64, BundleField, error) {
	return readField[float64](br, name, "ReadField")
}

// readField decompresses a member of element type T; other names the
// reader method for the other element type, for the mismatch error.
func readField[T core.Float](br *BundleReader, name, other string) ([]T, BundleField, error) {
	defer telBundleRead.Start().End()
	stream, f, err := br.member(name)
	if err != nil {
		return nil, f, err
	}
	if f.Elem != core.ElemFor[T]() {
		return nil, f, fmt.Errorf("ceresz: field %q holds %s; use %s", name, f.Elem, other)
	}
	out, err := decompress([]T(nil), stream, 0)
	return out, f, err
}
