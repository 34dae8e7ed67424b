package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"etude/internal/model"
	"etude/internal/topk"
)

// checker validates every 200 response and keeps the responses to a fixed
// sample of sessions for the comparison against the in-process reference.
type checker struct {
	k, catalog, sampleN int

	mu       sync.Mutex
	failures []string
	samples  map[int][]prediction
	checked  int64
}

type prediction struct {
	Items  []int64   `json:"items"`
	Scores []float32 `json:"scores"`
}

// maxSamplesPerSession bounds the responses kept per sampled session.
const maxSamplesPerSession = 8

// scanTol bounds how far a float32 inner product of the catalog's
// dimension may fall from the exact one, relative to the sum of the
// products' magnitudes. Float32 rounding of d ≈ 20 terms stays below 2e-6;
// quantised or pruned scans miss by orders of magnitude more.
const scanTol = 1e-5

func newChecker(w Workload) *checker {
	return &checker{k: w.TopK(), catalog: w.Catalog, sampleN: 64, samples: map[int][]prediction{}}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// verify checks one 200 body for session s: k items, ids in [0, C) and
// non-increasing scores.
func (c *checker) verify(s int, in *inputs, body []byte) {
	var p prediction
	if err := json.Unmarshal(body, &p); err != nil {
		c.fail("undecodable response %q to request %s: %v", body, in.bodies[s], err)
		return
	}
	if len(p.Items) != c.k || len(p.Scores) != c.k {
		c.fail("response has %d items and %d scores, want %d, to request %s", len(p.Items), len(p.Scores), c.k, in.bodies[s])
		return
	}
	for i, it := range p.Items {
		if it < 0 || it >= int64(c.catalog) {
			c.fail("item id %d outside [0, %d) in response to request %s", it, c.catalog, in.bodies[s])
			return
		}
		if i > 0 && p.Scores[i] > p.Scores[i-1] {
			c.fail("scores increase at rank %d in response to request %s", i, in.bodies[s])
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	if s < c.sampleN && len(c.samples[s]) < maxSamplesPerSession {
		c.samples[s] = append(c.samples[s], p)
	}
}

// exactness compares every sampled response bit for bit with ref's
// Recommend on the same session, then checks that answer against a float64
// scan that shares no code with the tensor and topk packages, so a scan that
// gave up exactness fails even when Recommend changed along with it. A nil
// ref (the static server) has nothing to compare.
func exactness(ref model.Model, in *inputs, chk *checker) error {
	if ref == nil {
		return nil
	}
	enc, ok := ref.(model.Encoder)
	if !ok {
		return fmt.Errorf("model %s exposes no encoder to check the scan with", ref.Name())
	}
	n := 0
	for s, got := range chk.samples {
		want := toPrediction(ref.Recommend(in.sessions[s]))
		for _, p := range got {
			n++
			if !equalBits(p, want) {
				return fmt.Errorf("response %s differs from the reference %s for request %s", mustJSON(p), mustJSON(want), in.bodies[s])
			}
		}
		if err := exactScan(enc, in.sessions[s], want); err != nil {
			return fmt.Errorf("%v, for request %s", err, in.bodies[s])
		}
	}
	if n == 0 {
		return errors.New("no sampled response to compare against the reference model")
	}
	fmt.Printf("exactness: %d responses checked; %d sampled responses bit-identical to the in-process reference, which matches an exact float64 scan on %d sessions\n",
		chk.checked, n, len(chk.samples))
	return nil
}

// exactScan checks that p is the top-k of the exact inner products of the
// session representation with every catalog row, up to float32 rounding:
// each score is its item's product, and no item left out beats the lowest
// one returned.
func exactScan(enc model.Encoder, session []int64, p prediction) error {
	rep := enc.Encode(session).Data()
	items := enc.ItemEmbeddings()
	rows, d := items.Dim(0), items.Dim(1)
	data := items.Data()
	exact := make([]float64, rows)
	tol := make([]float64, rows)
	for i := range exact {
		var sum, mag float64
		for j, x := range data[i*d : (i+1)*d] {
			t := float64(x) * float64(rep[j])
			sum += t
			mag += math.Abs(t)
		}
		exact[i], tol[i] = sum, scanTol*mag
	}
	served := make(map[int64]bool, len(p.Items))
	lowest, lowTol := math.Inf(1), 0.0
	for r, it := range p.Items {
		if served[it] {
			return fmt.Errorf("item %d returned twice", it)
		}
		served[it] = true
		if diff := math.Abs(float64(p.Scores[r]) - exact[it]); diff > tol[it] {
			return fmt.Errorf("item %d scored %g, the exact product is %g", it, p.Scores[r], exact[it])
		}
		if exact[it] < lowest {
			lowest, lowTol = exact[it], tol[it]
		}
	}
	for i, e := range exact {
		if !served[int64(i)] && e > lowest+lowTol+tol[i] {
			return fmt.Errorf("item %d (exact product %g) is missing from a top-%d whose lowest is %g", i, e, len(p.Items), lowest)
		}
	}
	return nil
}

func toPrediction(recs []topk.Result) prediction {
	p := prediction{Items: []int64{}, Scores: []float32{}}
	for _, r := range recs {
		p.Items = append(p.Items, r.Item)
		p.Scores = append(p.Scores, r.Score)
	}
	return p
}

func equalBits(a, b prediction) bool {
	if len(a.Items) != len(b.Items) || len(a.Scores) != len(b.Scores) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	for i := range a.Scores {
		if math.Float32bits(a.Scores[i]) != math.Float32bits(b.Scores[i]) {
			return false
		}
	}
	return true
}

func mustJSON(v any) string {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return string(bytes.TrimSpace(b.Bytes()))
}
