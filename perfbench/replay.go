package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"etude/internal/httpapi"
	"etude/internal/model"
	"etude/internal/shard"
	"etude/internal/tensor"
	"etude/internal/topk"
)

// cost is one replayed function's median time and allocations per call.
type cost struct {
	ns, allocs, bytes float64
}

const (
	// replayBlocks is how many timed blocks a replay is split into; the
	// median block is reported.
	replayBlocks = 5
	// replayShards is the shard count of the Pool.TopK replay.
	replayShards = 2
)

// measure calls op(0), op(1), ... for about budget and returns the median
// over replayBlocks blocks of ns, allocations and bytes per call.
func measure(budget time.Duration, op func(i int)) cost {
	per := budget / replayBlocks
	// Calibrate: double the batch until one takes a tenth of a block.
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		if el := time.Since(t); el >= per/10 || n >= 1<<24 {
			n = int(float64(n) * float64(per) / float64(el+1))
			break
		}
		n *= 2
	}
	if n < 1 {
		n = 1
	}
	var ns, allocs, byts []float64
	for b := 0; b < replayBlocks; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		byts = append(byts, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	}
	return cost{ns: median(ns), allocs: median(allocs), bytes: median(byts)}
}

// discardWriter is an http.ResponseWriter that drops the body, so WriteJSON
// is timed without a network.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink any

// replay times each layer's public functions on the recorded request
// bodies and sessions, with the workload's weights, and adds the per-layer
// metrics to out.
func replay(w Workload, in *inputs, ref model.Model, budget time.Duration, out map[string]float64) error {
	nSess := 64
	if nSess > len(in.sessions) {
		nSess = len(in.sessions)
	}
	// Every model workload replays every model-side function, also those
	// its server does not call (the JIT plan on an eager server, the
	// two-way scan on an unsharded one), so that each layer's cost can be
	// read at each catalog shape.
	ops := 2
	if ref != nil {
		ops += 6
	}
	each := budget / time.Duration(ops)

	dec := measure(each, func(i int) {
		var req httpapi.PredictRequest
		if err := httpapi.ReadJSON(bytes.NewReader(in.bodies[i%len(in.bodies)]), &req); err == nil {
			sink = req.Validate()
		}
	})
	out["httpapi.decode_ns"] = dec.ns
	out["httpapi.decode_allocs"] = dec.allocs

	resps := make([]httpapi.PredictResponse, nSess)
	for i := range resps {
		var recs []topk.Result
		if ref != nil {
			recs = ref.Recommend(in.sessions[i])
		} else {
			// No model behind the static server: encode a k-item list of
			// the same shape a model would return.
			for r := 0; r < model.DefaultTopK; r++ {
				recs = append(recs, topk.Result{Item: int64(r*997) % int64(w.Catalog), Score: 1 / float32(r+2)})
			}
		}
		for _, r := range recs {
			resps[i].Items = append(resps[i].Items, r.Item)
			resps[i].Scores = append(resps[i].Scores, r.Score)
		}
	}
	dw := &discardWriter{h: http.Header{}}
	enc := measure(each, func(i int) { httpapi.WriteJSON(dw, http.StatusOK, resps[i%nSess]) })
	out["httpapi.encode_ns"] = enc.ns
	out["httpapi.encode_allocs"] = enc.allocs

	if ref == nil {
		return nil
	}
	clockStart := time.Now()
	now := func() time.Duration { return time.Since(clockStart) }
	var emb, encd time.Duration
	calls := 0
	measure(each, func(i int) {
		recs, tm := model.RecommendStaged(ref, in.sessions[i%nSess], now)
		sink = recs
		emb += tm.EmbeddingLookup
		encd += tm.Encoder
		calls++
	})
	out["model.staged.embedding_us"] = float64(emb) / float64(calls) / 1e3
	out["model.staged.encoder_us"] = float64(encd) / float64(calls) / 1e3

	if jc, ok := ref.(model.JITCompilable); ok {
		compiled := jc.CompiledRecommend()
		out["model.jit_us"] = measure(each, func(i int) { sink = compiled(in.sessions[i%nSess]) }).ns / 1e3
	}

	encoder, ok := ref.(model.Encoder)
	if !ok {
		return fmt.Errorf("model %s exposes no encoder to replay the scan with", w.Model)
	}
	items := encoder.ItemEmbeddings()
	k := ref.Config().TopK
	reps := make([]*tensor.Tensor, nSess)
	for i := range reps {
		reps[i] = encoder.Encode(in.sessions[i])
	}
	dst := tensor.New(items.Dim(0))
	out["tensor.matvec_us"] = measure(each, func(i int) { tensor.MatVecInto(dst, items, reps[i%nSess]) }).ns / 1e3

	scores := make([][]float32, 8)
	for i := range scores {
		scores[i] = tensor.MatVec(items, reps[i]).Data()
	}
	out["topk.select_us"] = measure(each, func(i int) { sink = topk.SelectFromScores(scores[i%len(scores)], k) }).ns / 1e3

	scan := measure(each, func(i int) { sink = topk.TopK(items, reps[i%nSess], k) })
	out["topk.scan_us"] = scan.ns / 1e3
	out["topk.scan_allocs"] = scan.allocs
	out["topk.scan_alloc_bytes"] = scan.bytes
	// Computed, not counted: one f32 read per catalog element and a
	// multiply-add per element.
	c, d := float64(items.Dim(0)), float64(items.Dim(1))
	out["topk.scan_gbps"] = 4 * c * d / scan.ns
	out["topk.scan_gflops"] = 2 * c * d / scan.ns

	pool, err := shard.NewPool(items, replayShards)
	if err != nil {
		return err
	}
	out["shard.topk_us"] = measure(each, func(i int) { sink = pool.TopK(reps[i%nSess], k) }).ns / 1e3
	return nil
}
