package topk

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"etude/internal/tensor"
)

// referenceTopK is the unfused oracle: score every row with scalar
// tensor.Dot into a C-length buffer, then heap-select. It deliberately avoids
// tensor.MatVec and tensor.DotRows, which run the kernel under test, so a
// kernel bug cannot hide in both sides. TopK must match it bit for bit.
func referenceTopK(items, query *tensor.Tensor, k int) []Result {
	c := items.Dim(0)
	scores := make([]float32, c)
	for r := range scores {
		scores[r] = tensor.Dot(items.Row(r).Data(), query.Data())
	}
	return SelectFromScores(scores, k)
}

// sameResults reports whether got and want hold the same items with
// bit-identical scores in the same order. A NaN score only has to be NaN on
// both sides: when two NaNs meet in an add, the payload kept depends on the
// operand order the compiler picks for that loop, which Go leaves
// unspecified, while every NaN compares alike, so the selection is the same.
func sameResults(got, want []Result) bool {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i := range want {
		g, w := got[i].Score, want[i].Score
		sameScore := math.Float32bits(g) == math.Float32bits(w) || (math.IsNaN(float64(g)) && math.IsNaN(float64(w)))
		if got[i].Item != want[i].Item || !sameScore {
			return false
		}
	}
	return true
}

func checkAgainstReference(t *testing.T, label string, items, query *tensor.Tensor, k int) {
	t.Helper()
	got, want := TopK(items, query, k), referenceTopK(items, query, k)
	if !sameResults(got, want) {
		t.Fatalf("%s: TopK diverged from per-row Dot+SelectFromScores\n got %v\nwant %v", label, got, want)
	}
}

func normalTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

// The exactness contract: for every d mod 4, catalogs on both sides of k and
// of the 256-row scoring block, and k from zero past C, the blocked scan
// returns the same items with bit-identical scores as per-row tensor.Dot
// followed by SelectFromScores — also for duplicated rows
// (equal scores keep the lowest id), the all-zero query of an empty session,
// and rows holding ±Inf and NaN.
func TestTopKMatchesDotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 19; d++ {
		for _, kBase := range []int{0, 1, 21} {
			for _, c := range []int{1, kBase - 1, kBase, kBase + 1, 257, 10_000} {
				if c < 0 {
					continue
				}
				for _, k := range []int{kBase, c + 5} {
					items := normalTensor(rng, c, d)
					query := normalTensor(rng, d)
					label := fmt.Sprintf("d=%d C=%d k=%d", d, c, k)
					checkAgainstReference(t, label+" random", items, query, k)
					checkAgainstReference(t, label+" zero query", items, tensor.New(d), k)

					dup := items.Clone()
					for r := 1; r < c; r += 3 {
						copy(dup.Row(r).Data(), dup.Row(r-1).Data())
					}
					checkAgainstReference(t, label+" duplicated rows", dup, query, k)

					special := items.Clone()
					for r := 0; r < c; r += 7 {
						special.Data()[r*d+r%d] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[r%3]
					}
					checkAgainstReference(t, label+" inf/nan rows", special, query, k)
				}
			}
		}
	}
}

func TestTopKShapeMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"query length": func() { TopK(tensor.New(4, 3), tensor.New(2), 2) },
		"1-D items":    func() { TopK(tensor.New(4), tensor.New(4), 2) },
		"2-D query":    func() { TopK(tensor.New(4, 2), tensor.New(1, 2), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a shape panic", name)
				}
			}()
			call()
		}()
	}
}

// TopK keeps no C-length buffer and its 256-row score block stays on the
// stack: its allocation count is the same at C=1e3 and C=1e5 (the heap's two
// slices and the result), so a change that brings a score buffer back or lets
// the block escape fails here deterministically.
func TestTopKAllocsIndependentOfCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	query := normalTensor(rng, 18)
	allocs := make(map[int]float64)
	for _, c := range []int{1_000, 100_000} {
		items := normalTensor(rng, c, 18)
		allocs[c] = testing.AllocsPerRun(10, func() { TopK(items, query, 21) })
	}
	if allocs[1_000] != allocs[100_000] || allocs[100_000] > 3 {
		t.Fatalf("TopK allocs/op = %v at C=1e3 and %v at C=1e5, want equal and at most 3",
			allocs[1_000], allocs[100_000])
	}
}

// FuzzTopK decodes a catalog shape, k and the raw float32 bits of the
// catalog rows and the query from the input (missing bytes read as zero) and
// checks TopK against the scalar per-row Dot reference bit for bit.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{3, 5, 2, 0, 0, 128, 63, 0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c, d := int(data[0]%64), int(data[1]%20)
		k := int(data[2]) % (c + 6)
		floats := make([]float32, c*d+d)
		for i, rest := 0, data[3:]; i < len(floats) && len(rest) >= 4; i, rest = i+1, rest[4:] {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest))
		}
		items := tensor.FromSlice(floats[:c*d], c, d)
		query := tensor.FromSlice(floats[c*d:], d)
		checkAgainstReference(t, fmt.Sprintf("C=%d d=%d k=%d", c, d, k), items, query, k)
	})
}

var sinkResults []Result

// scanShapes are the three catalog scans the serving benchmark exercises —
// the JIT groceries-small catalog, one half of the two-shard
// groceries-large catalog, and the whole groceries-large catalog — plus
// d = 57, the paper's d = ⌈C^¼⌉ at C = 1e7, where a row takes 14 lane steps
// instead of 4.
var scanShapes = []struct{ c, d int }{{10_000, 10}, {50_000, 18}, {100_000, 18}, {10_000, 57}}

func benchmarkScan(b *testing.B, scan func(items, query *tensor.Tensor, k int) []Result) {
	for _, sh := range scanShapes {
		b.Run(fmt.Sprintf("C=%d/d=%d", sh.c, sh.d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			items, query := normalTensor(rng, sh.c, sh.d), normalTensor(rng, sh.d)
			b.SetBytes(int64(4 * sh.c * sh.d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResults = scan(items, query, 21)
			}
		})
	}
}

// BenchmarkTopK measures the blocked DotRows scan; MB/s is the catalog bytes
// streamed.
func BenchmarkTopK(b *testing.B) { benchmarkScan(b, TopK) }

// BenchmarkTopKReference measures the unfused oracle — scalar tensor.Dot per
// row into a C-length buffer, then SelectFromScores — on the same shapes, so
// the kernel and the scalar path come from one command.
func BenchmarkTopKReference(b *testing.B) { benchmarkScan(b, referenceTopK) }
