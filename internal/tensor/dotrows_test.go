package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameScore reports whether two scores are bit-identical. A NaN only has to
// be NaN on both sides: when two NaNs meet in an add, the payload kept
// depends on operand order, which Go leaves to the compiler.
func sameScore(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// checkDotRows scores c rows against x with the kernel, with dotRowsGeneric
// and with Dot row by row, and fails unless all three agree bit for bit. dst
// is followed by a sentinel the kernel must not overwrite.
func checkDotRows(t *testing.T, label string, c int, rows, x []float32) {
	t.Helper()
	d := len(x)
	const sentinel = float32(-12345.5)
	kernel := make([]float32, c+1)
	kernel[c] = sentinel
	DotRows(kernel[:c], rows, x)
	generic := make([]float32, c)
	dotRowsGeneric(generic, rows, x)
	for r := 0; r < c; r++ {
		want := Dot(rows[r*d:(r+1)*d], x)
		if !sameScore(kernel[r], want) || !sameScore(generic[r], want) {
			t.Fatalf("%s row %d: kernel %v (%#08x), generic %v, Dot %v (%#08x)",
				label, r, kernel[r], math.Float32bits(kernel[r]), generic[r], want, math.Float32bits(want))
		}
	}
	if kernel[c] != sentinel {
		t.Fatalf("%s: kernel wrote past dst[%d]", label, c-1)
	}
}

// specials are the values whose handling a kernel is most likely to get
// wrong: signed zeros, infinities, NaN, the smallest and largest subnormals,
// and a value whose square overflows.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), 3e38,
}

// The kernel contract: for every d from 1 to 64 (every d mod 4, up to 16
// lane steps) and 0 to 5 rows (so the two-row loop and the odd last row both
// run), on data starting at every 4-byte offset within 16 bytes, DotRows and
// dotRowsGeneric return Dot's score bit for bit — for random rows, rows and
// queries small enough that every product is subnormal, and rows salted with
// ±0, ±Inf, NaN and subnormals.
func TestDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(v []float32, variant string) {
		for i := range v {
			v[i] = float32(rng.NormFloat64())
			switch {
			case variant == "subnormal":
				v[i] *= 1e-20
			case variant == "special" && rng.Intn(6) == 0:
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for d := 1; d <= 64; d++ {
		for c := 0; c <= 5; c++ {
			for off := 0; off < 4; off++ {
				for _, variant := range []string{"random", "subnormal", "special"} {
					rowBuf, xBuf := make([]float32, off+c*d), make([]float32, off+d)
					rows, x := rowBuf[off:], xBuf[off:]
					fill(rows, variant)
					fill(x, variant)
					checkDotRows(t, fmt.Sprintf("d=%d C=%d offset=%d %s", d, c, off, variant), c, rows, x)
				}
			}
		}
	}
}

func TestDotRowsShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "DotRows with rows not len(dst)*len(x)")
	DotRows(make([]float32, 2), make([]float32, 5), make([]float32, 3))
}

// MatVecInto is the encoders' per-step projection, so it must not allocate.
func TestMatVecIntoAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, x, dst := New(64, 18), New(18), New(64)
	for i := range a.data {
		a.data[i] = float32(rng.NormFloat64())
	}
	if allocs := testing.AllocsPerRun(100, func() { MatVecInto(dst, a, x) }); allocs != 0 {
		t.Fatalf("MatVecInto allocs/op = %v, want 0", allocs)
	}
}

// FuzzDotRows decodes a row count, d, a start offset and the raw float32 bits
// of the rows and the query from the input (missing bytes read as zero) and
// checks DotRows and dotRowsGeneric against per-row Dot bit for bit.
func FuzzDotRows(f *testing.F) {
	f.Add([]byte{3, 5, 1, 0, 0, 128, 63, 0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c, d, off := int(data[0]%8), int(data[1]%70), int(data[2]%4)
		floats := make([]float32, off+c*d+d)
		for i, rest := off, data[3:]; i < len(floats) && len(rest) >= 4; i, rest = i+1, rest[4:] {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest))
		}
		rows, x := floats[off:off+c*d], floats[off+c*d:]
		checkDotRows(t, fmt.Sprintf("C=%d d=%d offset=%d", c, d, off), c, rows, x)
	})
}

var sinkScores []float32

// BenchmarkDotRows measures the kernel alone at the two served catalog
// shapes (C, d) = (1e4, 10) and (1e5, 18), and at d = 57, the paper's
// d = ⌈C^¼⌉ at C = 1e7, where each row takes 14 lane steps instead of 4.
// MB/s is the row bytes streamed.
func BenchmarkDotRows(b *testing.B) {
	for _, sh := range []struct{ c, d int }{{10_000, 10}, {100_000, 18}, {10_000, 57}} {
		b.Run(fmt.Sprintf("C=%d/d=%d", sh.c, sh.d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			rows, x := make([]float32, sh.c*sh.d), make([]float32, sh.d)
			for i := range rows {
				rows[i] = float32(rng.NormFloat64())
			}
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			dst := make([]float32, sh.c)
			b.SetBytes(int64(4 * sh.c * sh.d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DotRows(dst, rows, x)
			}
			sinkScores = dst
		})
	}
}
