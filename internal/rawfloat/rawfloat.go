// Package rawfloat converts float32 and float64 slices to and from their
// raw little-endian byte images: the verbatim block payloads of a CereSZ
// stream, the request and response bodies of cereszd, and the client's
// uploads all use this layout. Every function is generic over Float; Go
// compiles each element type separately, and the width test inside each
// function is decided at compile time for that type, so the loops carry
// no per-element type dispatch.
package rawfloat

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// Float is the element-type constraint shared by the host codec and its
// callers: the codec is the same pipeline for both widths, only the
// verbatim payload width and the rounding of the reconstruction differ.
type Float interface{ float32 | float64 }

// Size returns the byte width of T (4 or 8).
func Size[T Float]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Append appends the little-endian image of vals to dst.
func Append[T Float](dst []byte, vals []T) []byte {
	n := len(dst)
	dst = slices.Grow(dst, Size[T]()*len(vals))[:n+Size[T]()*len(vals)]
	out := dst[n:]
	if Size[T]() == 8 {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(float64(v)))
		}
		return dst
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
	}
	return dst
}

// Decode fills dst from the little-endian image in raw, which must hold
// at least len(dst) elements. Bits are copied exactly, NaN payloads
// included.
func Decode[T Float](dst []T, raw []byte) {
	if Size[T]() == 8 {
		raw = raw[:8*len(dst)]
		for i := range dst {
			dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])))
		}
		return
	}
	raw = raw[:4*len(dst)]
	for i := range dst {
		dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
}

// Instantiating both element types here, where the functions are defined,
// puts the inline bodies of their callees (math.Float32bits,
// binary.LittleEndian.Uint64, ...) into this package's export data, so the
// importing packages that instantiate them too inline those callees
// instead of calling them once per element.
var _ = [...]any{Append[float32], Append[float64], Decode[float32], Decode[float64]}
