// Package topk implements the maximum-inner-product search (MIPS) stage that
// dominates inference latency in session-based recommendation models.
//
// Given the learned d-dimensional representations of all C catalog items and
// a d-dimensional session representation, every model in this repository
// scores all items with an inner product and returns the k best. This is the
// O(C·(d + log k)) term from the paper's complexity analysis: C·d for the
// scoring pass and C·log k for maintaining the best-k heap.
//
// TopK is the one exact scan every catalog search goes through (eager, JIT,
// in-process sharded and per-partition retrieval). It scores the catalog in
// 256-row blocks with tensor.DotRows, the SSE row-dot kernel shared with
// tensor.MatVec, into a stack buffer and tests each block against the heap
// root, so no C-length score buffer is ever materialised. Its output is
// bit-identical to scoring every row with tensor.Dot and selecting with
// SelectFromScores.
package topk

import (
	"fmt"
	"math"

	"etude/internal/tensor"
)

// Result is one recommended item with its model score.
type Result struct {
	Item  int64   // catalog item identifier (row in the embedding matrix)
	Score float32 // inner-product score
}

// scoreBlock is how many catalog rows TopK scores per tensor.DotRows call: a
// 1 KiB stack buffer, small enough to stay in L1 next to the rows it scores.
const scoreBlock = 256

// TopK returns the k rows of items (a [C,d] embedding matrix) with the
// highest inner product against query (a length-d vector), in descending
// score order with ties broken towards the lower item id. If k exceeds C, all
// C items are returned. Shape mismatches panic, as in tensor.MatVec.
//
// It scores the catalog in blocks of 256 rows with tensor.DotRows into a
// stack buffer, so no C-length score buffer exists, and then tests each
// block's scores against the root of the bounded min-heap (the current k-th
// best), kept in a local threshold; the heap is touched only when a score is
// not below it. The result is bit-identical to scoring every row with
// tensor.Dot and selecting with SelectFromScores because
//   - DotRows reproduces Dot's summation order bit for bit;
//   - a row is rejected early only when its score is strictly below the
//     root; ties and NaNs still go through the heap's own comparison.
func TopK(items, query *tensor.Tensor, k int) []Result {
	if items.Dims() != 2 || query.Dims() != 1 {
		panic("topk: TopK requires a 2-D matrix and a 1-D vector")
	}
	c, d := items.Dim(0), items.Dim(1)
	if query.Dim(0) != d {
		panic(fmt.Sprintf("topk: TopK dims [%d %d] × %d", c, d, query.Dim(0)))
	}
	if k <= 0 {
		return nil
	}
	if k > c {
		k = c
	}
	data, q := items.Data(), query.Data()
	h := newMinHeap(k)
	// Until the heap is full nothing is below -Inf (NaN compares false), so
	// every row is offered; from then on thr is the heap root.
	thr := float32(math.Inf(-1))
	var block [scoreBlock]float32
	for base := 0; base < c; base += scoreBlock {
		scores := block[:min(scoreBlock, c-base)]
		tensor.DotRows(scores, data[base*d:(base+len(scores))*d], q)
		for j, s := range scores {
			if s < thr {
				continue
			}
			h.offer(int64(base+j), s)
			if len(h.items) == h.cap {
				thr = h.scores[0]
			}
		}
	}
	return h.drainDescending()
}

// SelectFromScores returns the k largest entries of scores in descending
// order using a bounded min-heap: O(C log k) instead of O(C log C) for a full
// sort. Ties are broken towards the lower item id for deterministic output.
func SelectFromScores(scores []float32, k int) []Result {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	h := newMinHeap(k)
	for i, s := range scores {
		h.offer(int64(i), s)
	}
	return h.drainDescending()
}

// SelectFromScoresSorted is the exhaustive baseline used by the top-k
// ablation benchmark: it fully sorts the score vector (O(C log C)) and takes
// the first k. Results are identical to SelectFromScores.
func SelectFromScoresSorted(scores []float32, k int) []Result {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	t := tensor.FromSlice(scores, len(scores))
	idx := t.ArgSortDesc()
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		out[i] = Result{Item: int64(idx[i]), Score: scores[idx[i]]}
	}
	return out
}

// minHeap is a fixed-capacity binary min-heap over (item, score) pairs. The
// root holds the current k-th best score, so a candidate only enters the heap
// when it beats the root.
type minHeap struct {
	items  []int64
	scores []float32
	cap    int
}

func newMinHeap(k int) *minHeap {
	return &minHeap{
		items:  make([]int64, 0, k),
		scores: make([]float32, 0, k),
		cap:    k,
	}
}

// less orders by score ascending with item id descending as tie-break, so
// that for equal scores the larger item id is considered "worse" and evicted
// first, yielding deterministic lowest-id-wins results.
func (h *minHeap) less(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] < h.scores[b]
	}
	return h.items[a] > h.items[b]
}

func (h *minHeap) swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
}

func (h *minHeap) offer(item int64, score float32) {
	if len(h.items) < h.cap {
		h.items = append(h.items, item)
		h.scores = append(h.scores, score)
		h.up(len(h.items) - 1)
		return
	}
	// Replace the root if the candidate is strictly better than the current
	// k-th best (or equal with a smaller item id).
	if score < h.scores[0] || (score == h.scores[0] && item > h.items[0]) {
		return
	}
	h.items[0], h.scores[0] = item, score
	h.down(0)
}

func (h *minHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *minHeap) down(i int) {
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && h.less(child+1, child) {
			child++
		}
		if !h.less(child, i) {
			return
		}
		h.swap(i, child)
		i = child
	}
}

// drainDescending empties the heap into a slice sorted from best to worst.
func (h *minHeap) drainDescending() []Result {
	n := len(h.items)
	out := make([]Result, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = Result{Item: h.items[0], Score: h.scores[0]}
		last := len(h.items) - 1
		h.swap(0, last)
		h.items = h.items[:last]
		h.scores = h.scores[:last]
		h.down(0)
	}
	return out
}
