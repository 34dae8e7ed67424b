package topk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"etude/internal/tensor"
)

func TestSelectFromScoresBasic(t *testing.T) {
	scores := []float32{0.1, 0.9, 0.5, 0.7, 0.3}
	got := SelectFromScores(scores, 3)
	want := []Result{{1, 0.9}, {3, 0.7}, {2, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSelectKLargerThanC(t *testing.T) {
	got := SelectFromScores([]float32{1, 2}, 10)
	if len(got) != 2 || got[0].Item != 1 || got[1].Item != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestSelectKZeroAndNegative(t *testing.T) {
	if got := SelectFromScores([]float32{1, 2}, 0); got != nil {
		t.Fatalf("k=0 should return nil, got %+v", got)
	}
	if got := SelectFromScores([]float32{1, 2}, -3); got != nil {
		t.Fatalf("k<0 should return nil, got %+v", got)
	}
}

func TestSelectEmptyScores(t *testing.T) {
	if got := SelectFromScores(nil, 5); len(got) != 0 {
		t.Fatalf("empty scores should return empty, got %+v", got)
	}
}

func TestTiesBrokenByLowerItemID(t *testing.T) {
	scores := []float32{0.5, 0.5, 0.5, 0.5}
	got := SelectFromScores(scores, 2)
	if got[0].Item != 0 || got[1].Item != 1 {
		t.Fatalf("tie-break should prefer lower ids, got %+v", got)
	}
}

func TestHeapMatchesSortBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(30)
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = float32(rng.NormFloat64())
		}
		heap := SelectFromScores(scores, k)
		sorted := SelectFromScoresSorted(scores, k)
		if len(heap) != len(sorted) {
			t.Fatalf("len mismatch: heap %d sort %d", len(heap), len(sorted))
		}
		for i := range heap {
			if heap[i] != sorted[i] {
				t.Fatalf("trial %d pos %d: heap %+v sort %+v", trial, i, heap[i], sorted[i])
			}
		}
	}
}

func TestTopKUsesInnerProduct(t *testing.T) {
	// Three items in 2-D; the query points along item 2's direction.
	items := tensor.FromSlice([]float32{
		1, 0,
		0, 1,
		2, 2,
	}, 3, 2)
	query := tensor.FromSlice([]float32{1, 1}, 2)
	got := TopK(items, query, 2)
	if got[0].Item != 2 || got[0].Score != 4 {
		t.Fatalf("best item = %+v, want item 2 score 4", got[0])
	}
	if got[1].Score != 1 {
		t.Fatalf("second score = %v, want 1", got[1].Score)
	}
}

// Property: heap selection equals sort baseline for random inputs, the
// results are in non-increasing score order, and item ids are unique.
func TestSelectProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		scores := make([]float32, n)
		for i := range scores {
			// Coarse quantisation provokes plenty of score ties.
			scores[i] = float32(rng.Intn(16))
		}
		heap := SelectFromScores(scores, k)
		sorted := SelectFromScoresSorted(scores, k)
		if len(heap) != len(sorted) {
			return false
		}
		seen := make(map[int64]bool, len(heap))
		for i := range heap {
			if heap[i] != sorted[i] {
				return false
			}
			if i > 0 && heap[i-1].Score < heap[i].Score {
				return false
			}
			if seen[heap[i].Item] {
				return false
			}
			seen[heap[i].Item] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSelectHeap(b *testing.B) {
	scores := benchScores(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectFromScores(scores, 21)
	}
}

func BenchmarkSelectSort(b *testing.B) {
	scores := benchScores(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectFromScoresSorted(scores, 21)
	}
}

func benchScores(n int) []float32 {
	rng := rand.New(rand.NewSource(42))
	scores := make([]float32, n)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	return scores
}
