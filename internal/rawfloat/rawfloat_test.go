package rawfloat

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestLayoutAndRoundTrip pins the byte image to encoding/binary's
// little-endian layout and checks that Decode restores every bit pattern,
// NaN payloads and signed zeros included, for both element types.
func TestLayoutAndRoundTrip(t *testing.T) {
	f32 := []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00123), math.MaxFloat32}
	f64 := []float64{-2.25, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), math.SmallestNonzeroFloat64}

	prefix := []byte{0xAA}
	want := append([]byte(nil), prefix...)
	for _, v := range f32 {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
	}
	got := Append(append([]byte(nil), prefix...), f32)
	if !bytes.Equal(got, want) {
		t.Fatalf("Append(float32) = %x, want %x", got, want)
	}
	back32 := make([]float32, len(f32))
	Decode(back32, got[len(prefix):])
	for i := range f32 {
		if math.Float32bits(back32[i]) != math.Float32bits(f32[i]) {
			t.Fatalf("float32 %d: %08x, want %08x", i, math.Float32bits(back32[i]), math.Float32bits(f32[i]))
		}
	}

	want = nil
	for _, v := range f64 {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	got = Append(nil, f64)
	if !bytes.Equal(got, want) {
		t.Fatalf("Append(float64) = %x, want %x", got, want)
	}
	back64 := make([]float64, len(f64))
	Decode(back64, got)
	for i := range f64 {
		if math.Float64bits(back64[i]) != math.Float64bits(f64[i]) {
			t.Fatalf("float64 %d: %016x, want %016x", i, math.Float64bits(back64[i]), math.Float64bits(f64[i]))
		}
	}

	if Size[float32]() != 4 || Size[float64]() != 8 {
		t.Fatalf("Size = %d, %d; want 4, 8", Size[float32](), Size[float64]())
	}
}
