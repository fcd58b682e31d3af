// Package sdrbench reads and writes the raw binary field files used by the
// SDRBench archives the paper evaluates (little-endian float32/float64
// arrays with out-of-band dimensions, conventionally named like
// CLDHGH_1_1800_3600.f32). When the real archives are available this
// package feeds them to the compressors; otherwise internal/datasets
// synthesizes stand-ins.
package sdrbench

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"ceresz/internal/lorenzo"
	"ceresz/internal/rawfloat"
)

// Field is one on-disk field.
type Field struct {
	// Path is the file location.
	Path string
	// Name is the field name parsed from the file name.
	Name string
	// Dims is the grid, parsed from the file name when it follows the
	// name_[dims...].f32 convention, else 1D.
	Dims lorenzo.Dims
	// Float64 marks a double-precision file (.f64).
	Float64 bool
}

// dimsPattern matches trailing _d1_d2[_d3] before the extension.
var dimsPattern = regexp.MustCompile(`^(.*?)_(\d+)(?:_(\d+))?(?:_(\d+))?$`)

// ParseName extracts the field name and dims from an SDRBench-style file
// name such as "CLDHGH_1_1800_3600.f32" (dims are listed slowest-first in
// the convention; we return them with Nx fastest).
func ParseName(path string) (name string, d lorenzo.Dims, isF64 bool, err error) {
	base := filepath.Base(path)
	ext := strings.ToLower(filepath.Ext(base))
	switch ext {
	case ".f32", ".dat", ".bin":
	case ".f64", ".d64":
		isF64 = true
	default:
		return "", d, false, fmt.Errorf("sdrbench: unrecognized extension %q", ext)
	}
	stem := strings.TrimSuffix(base, filepath.Ext(base))
	m := dimsPattern.FindStringSubmatch(stem)
	if m == nil {
		return stem, lorenzo.Dims{}, isF64, nil
	}
	var sizes []int
	for _, g := range m[2:] {
		if g == "" {
			continue
		}
		v, err := strconv.Atoi(g)
		if err != nil || v <= 0 {
			return stem, lorenzo.Dims{}, isF64, nil
		}
		sizes = append(sizes, v)
	}
	// Drop a leading "1" (the archives often prefix a unit dimension).
	if len(sizes) > 1 && sizes[0] == 1 {
		sizes = sizes[1:]
	}
	switch len(sizes) {
	case 1:
		d = lorenzo.Dims1(sizes[0])
	case 2:
		// Slowest-first in the name: name_NY_NX.
		d = lorenzo.Dims2(sizes[1], sizes[0])
	case 3:
		d = lorenzo.Dims3(sizes[2], sizes[1], sizes[0])
	default:
		return stem, lorenzo.Dims{}, isF64, nil
	}
	return m[1], d, isF64, nil
}

// ReadF32 loads a raw little-endian float32 file.
func ReadF32(path string) ([]float32, error) { return readRaw[float32](path) }

// ReadF64 loads a raw little-endian float64 file.
func ReadF64(path string) ([]float64, error) { return readRaw[float64](path) }

func readRaw[T rawfloat.Float](path string) ([]T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := rawfloat.Size[T]()
	if len(raw)%size != 0 {
		return nil, fmt.Errorf("sdrbench: %s: %d bytes is not a float%d array", path, len(raw), 8*size)
	}
	out := make([]T, len(raw)/size)
	rawfloat.Decode(out, raw)
	return out, nil
}

// WriteF32 writes a raw little-endian float32 file.
func WriteF32(path string, data []float32) error {
	return os.WriteFile(path, rawfloat.Append(nil, data), 0o644)
}

// WriteF64 writes a raw little-endian float64 file.
func WriteF64(path string, data []float64) error {
	return os.WriteFile(path, rawfloat.Append(nil, data), 0o644)
}

// Load reads a field file and validates its size against the dims encoded
// in its name (when present). The returned Field's Dims falls back to 1D
// of the element count when the name carries no dims.
func Load(path string) (Field, []float32, error) {
	name, d, isF64, err := ParseName(path)
	if err != nil {
		return Field{}, nil, err
	}
	if isF64 {
		return Field{}, nil, fmt.Errorf("sdrbench: %s is float64; use Load64", path)
	}
	data, err := ReadF32(path)
	if err != nil {
		return Field{}, nil, err
	}
	f := Field{Path: path, Name: name, Dims: d}
	if f.Dims.Len() == 0 || f.Dims == (lorenzo.Dims{}) {
		f.Dims = lorenzo.Dims1(len(data))
	} else if f.Dims.Len() != len(data) {
		return Field{}, nil, fmt.Errorf("sdrbench: %s: name says %d elements, file has %d",
			path, f.Dims.Len(), len(data))
	}
	return f, data, nil
}

// Load64 reads a float64 field file.
func Load64(path string) (Field, []float64, error) {
	name, d, isF64, err := ParseName(path)
	if err != nil {
		return Field{}, nil, err
	}
	if !isF64 {
		return Field{}, nil, fmt.Errorf("sdrbench: %s is float32; use Load", path)
	}
	data, err := ReadF64(path)
	if err != nil {
		return Field{}, nil, err
	}
	f := Field{Path: path, Name: name, Dims: d, Float64: true}
	if f.Dims.Len() == 0 || f.Dims == (lorenzo.Dims{}) {
		f.Dims = lorenzo.Dims1(len(data))
	} else if f.Dims.Len() != len(data) {
		return Field{}, nil, fmt.Errorf("sdrbench: %s: name says %d elements, file has %d",
			path, f.Dims.Len(), len(data))
	}
	return f, data, nil
}

// Scan lists the field files under dir (non-recursive), sorted by name.
func Scan(dir string) ([]Field, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Field
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, d, isF64, err := ParseName(e.Name())
		if err != nil {
			continue // not a field file
		}
		out = append(out, Field{
			Path:    filepath.Join(dir, e.Name()),
			Name:    name,
			Dims:    d,
			Float64: isF64,
		})
	}
	return out, nil
}
