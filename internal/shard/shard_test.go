package shard

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"etude/internal/model"
	"etude/internal/topk"
)

func TestPlanPartitionsContiguously(t *testing.T) {
	for _, tc := range []struct{ catalog, shards int }{
		{10, 1}, {10, 2}, {10, 3}, {10, 10}, {1_000_003, 8},
	} {
		parts, err := Plan(tc.catalog, tc.shards)
		if err != nil {
			t.Fatalf("Plan(%d, %d): %v", tc.catalog, tc.shards, err)
		}
		if len(parts) != tc.shards {
			t.Fatalf("Plan(%d, %d) = %d partitions", tc.catalog, tc.shards, len(parts))
		}
		next := 0
		for i, p := range parts {
			if p.Index != i || p.From != next || p.Size() < 1 {
				t.Fatalf("Plan(%d, %d)[%d] = %v: not contiguous from %d", tc.catalog, tc.shards, i, p, next)
			}
			// Near-equal: sizes differ by at most one item.
			if diff := p.Size() - parts[len(parts)-1].Size(); diff < 0 || diff > 1 {
				t.Fatalf("Plan(%d, %d): uneven partition %v", tc.catalog, tc.shards, p)
			}
			next = p.To
		}
		if next != tc.catalog {
			t.Fatalf("Plan(%d, %d) covers %d items", tc.catalog, tc.shards, next)
		}
	}
	for _, tc := range []struct{ catalog, shards int }{{0, 1}, {10, 0}, {3, 4}} {
		if _, err := Plan(tc.catalog, tc.shards); err == nil {
			t.Fatalf("Plan(%d, %d): expected error", tc.catalog, tc.shards)
		}
	}
}

func TestSliceCostDividesCatalogTerms(t *testing.T) {
	c := model.Cost{
		Catalog: 1001, Dim: 64,
		EncoderFLOPs: 5e6, MIPSFLOPs: 8e6, TopKOps: 4e4,
		SharedBytes: 2.56e5, PerRequestBytes: 2.4e4,
		KernelLaunches: 12, HostTransfers: 2, DenseOverheadFLOPs: 1e3,
	}
	s := SliceCost(c, 4)
	if s.Catalog != 251 { // ceil(1001/4)
		t.Fatalf("sliced catalog = %d, want 251", s.Catalog)
	}
	if s.EncoderFLOPs != 0 {
		t.Fatalf("sliced encoder FLOPs = %v, want 0 (frontend encodes once)", s.EncoderFLOPs)
	}
	if s.MIPSFLOPs != c.MIPSFLOPs/4 || s.TopKOps != c.TopKOps/4 ||
		s.SharedBytes != c.SharedBytes/4 || s.PerRequestBytes != c.PerRequestBytes/4 ||
		s.DenseOverheadFLOPs != c.DenseOverheadFLOPs/4 {
		t.Fatalf("catalog-proportional terms not divided by 4: %+v", s)
	}
	if s.KernelLaunches != c.KernelLaunches || s.HostTransfers != c.HostTransfers {
		t.Fatalf("fixed per-worker overheads must not shrink: %+v", s)
	}
	if got := SliceCost(c, 1); !reflect.DeepEqual(got, func() model.Cost { c2 := c; c2.EncoderFLOPs = 0; return c2 }()) {
		t.Fatalf("SliceCost(c, 1) must only drop the encoder, got %+v", got)
	}
}

func TestMergeOpsGrowsWithShards(t *testing.T) {
	if MergeOps(0, 21) != 0 || MergeOps(4, 0) != 0 {
		t.Fatal("degenerate merge must cost nothing")
	}
	prev := 0.0
	for _, s := range []int{1, 2, 4, 8, 16} {
		ops := MergeOps(s, 21)
		if ops <= prev {
			t.Fatalf("MergeOps(%d, 21) = %v, not increasing past %v", s, ops, prev)
		}
		prev = ops
	}
}

// The in-process tier's correctness property: for every shard count, even
// or uneven split, the scatter-gather result is bit-identical to the
// unsharded model and to one fused topk.TopK scan over the whole catalog —
// same items, same scores, same order, ties and all.
func TestPoolMatchesUnshardedModel(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 3_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.(model.Encoder)
	k := enc.Config().TopK
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 2, 3, 4, 8} {
		pool, err := NewPool(enc.ItemEmbeddings(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			session := make([]int64, 1+rng.Intn(20))
			for i := range session {
				session[i] = int64(rng.Intn(3_000))
			}
			rep := enc.Encode(session)
			want := m.Recommend(session)
			if fused := topk.TopK(enc.ItemEmbeddings(), rep, k); !reflect.DeepEqual(fused, want) {
				t.Fatalf("trial %d: unsharded fused scan diverged from the model\n got %v\nwant %v", trial, fused, want)
			}
			got := pool.TopK(rep, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d trial %d: sharded top-k diverged\n got %v\nwant %v", shards, trial, got, want)
			}
		}
	}
}

func TestPartitionRetrieverValidatesBounds(t *testing.T) {
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	enc := m.(model.Encoder)
	if _, err := PartitionRetriever(enc, Partition{From: 50, To: 150}); err == nil {
		t.Fatal("expected error for partition past the catalog end")
	}
	if _, err := PartitionRetriever(enc, Partition{From: 10, To: 10}); err == nil {
		t.Fatal("expected error for empty partition")
	}
	if _, err := PartitionRetriever(nil, Partition{From: 0, To: 10}); err == nil {
		t.Fatal("expected error for nil encoder")
	}
}

func TestHedgeTimerDelays(t *testing.T) {
	fixed := newHedgeTimer(HedgeConfig{Enabled: true, Delay: 7 * time.Millisecond})
	fixed.observe(time.Second) // must be ignored: fixed delay tracks nothing
	if d := fixed.delay(); d != 7*time.Millisecond {
		t.Fatalf("fixed delay = %v, want 7ms", d)
	}

	ad := newHedgeTimer(HedgeConfig{Enabled: true, MinSamples: 8, FallbackDelay: 3 * time.Millisecond})
	if d := ad.delay(); d != 3*time.Millisecond {
		t.Fatalf("cold adaptive delay = %v, want the 3ms fallback", d)
	}
	// 100 fast primaries and one straggler: the p95 must track the fast
	// cluster, not the straggler.
	for i := 0; i < 100; i++ {
		ad.observe(time.Millisecond)
	}
	ad.observe(500 * time.Millisecond)
	if d := ad.delay(); d < time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("warm adaptive delay = %v, want ≈1ms (p95 of the healthy cluster)", d)
	}
}
