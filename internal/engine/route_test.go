package engine

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRouterGeometry(t *testing.T) {
	for _, target := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, size := range []int{1, 2, 7, 16, 100, 1000, 1 << 16, 1<<16 + 1} {
			rt := NewRouter(3, target, size)
			if size >= target {
				if rt.Shards() < target || rt.Shards() > 2*target {
					t.Fatalf("target=%d size=%d: %d shards outside [target, 2·target]",
						target, size, rt.Shards())
				}
			}
			// Every cell must map to a valid shard, and the mapping must be
			// contiguous and non-decreasing.
			last := 0
			for _, i := range []int32{0, int32(size / 2), int32(size - 1)} {
				s := rt.ShardOf(i)
				if s < 0 || s >= rt.Shards() {
					t.Fatalf("target=%d size=%d: cell %d maps to shard %d of %d",
						target, size, i, s, rt.Shards())
				}
				if s < last {
					t.Fatalf("target=%d size=%d: shard mapping not monotone", target, size)
				}
				last = s
			}
		}
	}
}

// stampedTally builds a stamped Tally of the given size, the mode
// FoldShard requires.
func stampedTally(size int) *Tally {
	ta := NewTally(NewPool(1), size)
	ta.BeginStamped()
	return ta
}

// wantTouched is the ordered-fold contract for shard s: the cells of its
// window whose reference count is nonzero, strictly ascending.
func wantTouched(rt *Router, s int, ref []int32) []int32 {
	var want []int32
	for i := s << rt.Shift(); i < (s+1)<<rt.Shift() && i < len(ref); i++ {
		if ref[i] > 0 {
			want = append(want, int32(i))
		}
	}
	return want
}

func checkOrderedFold(t *testing.T, rt *Router, s int, touched, ref []int32) {
	t.Helper()
	if want := wantTouched(rt, s, ref); !slices.Equal(touched, want) {
		t.Fatalf("shard %d: touched %v, want the ascending nonzero cells %v", s, touched, want)
	}
}

// TestRouterFoldMatchesDense drives random routed rounds through
// FoldShard on a stamped tally and checks counts and touched lists
// against a plain dense accumulation. Between rounds only StampedReset
// runs — the counts are never zeroed, which is exactly the stale-value
// situation the epoch stamps must mask.
func TestRouterFoldMatchesDense(t *testing.T) {
	const size = 500
	const workers = 3
	rt := NewRouter(workers, 4, size)
	ta := stampedTally(size)
	src := rng.New(7)
	for round := 0; round < 5; round++ {
		rt.ResetLanes()
		adds := make([]int32, 0, 300)
		for k := 0; k < 100+round*50; k++ {
			adds = append(adds, int32(src.Intn(size)))
		}
		for k, i := range adds {
			lanes := rt.Lanes(k % workers)
			s := int(i) >> rt.Shift()
			lanes[s] = append(lanes[s], i)
		}
		ref := denseReference(size, adds)
		var touchedTotal int
		for s := 0; s < rt.Shards(); s++ {
			touched := rt.FoldShard(s, ta)
			checkOrderedFold(t, rt, s, touched, ref)
			touchedTotal += len(touched)
			seen := make(map[int32]bool, len(touched))
			for _, i := range touched {
				if seen[i] {
					t.Fatalf("round %d shard %d: cell %d twice in touched", round, s, i)
				}
				seen[i] = true
				if rt.ShardOf(i) != s {
					t.Fatalf("round %d: cell %d in shard %d's touched list, owned by %d",
						round, i, s, rt.ShardOf(i))
				}
			}
		}
		distinct := 0
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != ref[i] {
				t.Fatalf("round %d: ReceivedAt(%d) = %d, want %d", round, i, got, ref[i])
			}
			if ref[i] > 0 {
				distinct++
			}
		}
		if touchedTotal != distinct {
			t.Fatalf("round %d: %d touched cells, want %d", round, touchedTotal, distinct)
		}
		ta.StampedReset()
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != 0 {
				t.Fatalf("round %d: ReceivedAt(%d) = %d after StampedReset", round, i, got)
			}
		}
	}
}

func TestRouterDiscard(t *testing.T) {
	rt := NewRouter(2, 2, 64)
	ta := stampedTally(64)
	pool := NewPool(2)
	lanes := rt.Lanes(0)
	for _, i := range []int32{1, 1, 40, 63} {
		lanes[rt.ShardOf(i)] = append(lanes[rt.ShardOf(i)], i)
	}
	for s := 0; s < rt.Shards(); s++ {
		rt.FoldShard(s, ta)
	}
	// Simulate the early-exit path: the tally is fully reset (an epoch
	// advance in stamped mode), the Router is discarded, and the next
	// round must start clean.
	ta.FullReset(pool)
	if !ta.IsStamped() {
		t.Fatal("FullReset dropped stamped mode")
	}
	rt.Discard()
	rt.ResetLanes()
	for s := 0; s < rt.Shards(); s++ {
		if got := rt.FoldShard(s, ta); len(got) != 0 {
			t.Fatalf("shard %d folded %v after Discard", s, got)
		}
	}
	for i := int32(0); i < 64; i++ {
		if got := ta.ReceivedAt(i); got != 0 {
			t.Fatalf("ReceivedAt(%d) = %d after Discard + empty fold", i, got)
		}
	}
}

// Property: folded counts are independent of the worker count and the
// target shard count.
func TestQuickRouterInvariance(t *testing.T) {
	f := func(seed uint64, wRaw, tRaw, sizeRaw uint8) bool {
		workers := 1 + int(wRaw%6)
		target := 1 + int(tRaw%9)
		size := 16 + int(sizeRaw)
		rt := NewRouter(workers, target, size)
		ta := stampedTally(size)
		src := rng.New(seed)
		adds := make([]int32, src.Intn(4*size))
		for k := range adds {
			adds[k] = int32(src.Intn(size))
			lanes := rt.Lanes(k % workers)
			s := int(adds[k]) >> rt.Shift()
			lanes[s] = append(lanes[s], adds[k])
		}
		lists := make([][]int32, rt.Shards())
		for s := 0; s < rt.Shards(); s++ {
			lists[s] = rt.FoldShard(s, ta)
		}
		ref := denseReference(size, adds)
		for i := range ref {
			if ta.ReceivedAt(int32(i)) != ref[i] {
				return false
			}
		}
		for s, l := range lists {
			if !slices.Equal(l, wantTouched(rt, s, ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRouterFoldOrderedNarrowShards covers shard widths below one
// occupancy word (1 to 32 cells, so every shard owns a word it only
// partly uses) and a last shard cut short by the size, over several
// rounds on one Router: the lists stay ascending and exact, and the
// bitmap is clean after every round.
func TestRouterFoldOrderedNarrowShards(t *testing.T) {
	for _, g := range []struct{ workers, target, size int }{
		{3, 9, 100}, {2, 100, 100}, {1, 7, 7}, {4, 5, 201}, {2, 3, 130},
	} {
		rt := NewRouter(g.workers, g.target, g.size)
		if w := 1 << rt.Shift(); w >= 64 {
			t.Fatalf("%+v: shard width %d, want below 64", g, w)
		}
		ta := stampedTally(g.size)
		src := rng.New(uint64(g.size))
		for round := 0; round < 4; round++ {
			rt.ResetLanes()
			adds := make([]int32, src.Intn(3*g.size))
			for k := range adds {
				adds[k] = int32(src.Intn(g.size))
				lanes := rt.Lanes(k % g.workers)
				lanes[rt.ShardOf(adds[k])] = append(lanes[rt.ShardOf(adds[k])], adds[k])
			}
			ref := denseReference(g.size, adds)
			for s := 0; s < rt.Shards(); s++ {
				checkOrderedFold(t, rt, s, rt.FoldShard(s, ta), ref)
			}
			for k, w := range rt.occ {
				if w != 0 {
					t.Fatalf("%+v round %d: occupancy word %d = %#x after the folds", g, round, k, w)
				}
			}
			ta.StampedReset()
		}
	}
}

// TestRouterFoldCleanAfterDiscard abandons a round halfway — some shards
// folded, the rest still holding lanes — then runs the early-exit reset
// (Discard + FullReset). The next round's folds must see a clean bitmap:
// exactly the new round's cells, ascending, with nothing left over from
// the abandoned one.
func TestRouterFoldCleanAfterDiscard(t *testing.T) {
	const size = 300
	rt := NewRouter(2, 4, size)
	ta := stampedTally(size)
	pool := NewPool(2)
	src := rng.New(11)
	route := func(n int) []int32 {
		rt.ResetLanes()
		adds := make([]int32, n)
		for k := range adds {
			adds[k] = int32(src.Intn(size))
			lanes := rt.Lanes(k % 2)
			lanes[rt.ShardOf(adds[k])] = append(lanes[rt.ShardOf(adds[k])], adds[k])
		}
		return adds
	}
	route(400)
	for s := 0; s < rt.Shards()/2; s++ {
		rt.FoldShard(s, ta)
	}
	ta.FullReset(pool)
	rt.Discard()
	for k, w := range rt.occ {
		if w != 0 {
			t.Fatalf("occupancy word %d = %#x after Discard + FullReset", k, w)
		}
	}
	ref := denseReference(size, route(50))
	for s := 0; s < rt.Shards(); s++ {
		checkOrderedFold(t, rt, s, rt.FoldShard(s, ta), ref)
	}
	for i := int32(0); i < size; i++ {
		if got := ta.ReceivedAt(i); got != ref[i] {
			t.Fatalf("ReceivedAt(%d) = %d, want %d", i, got, ref[i])
		}
	}
}

// BenchmarkFoldShard times one shard fold of a 2^16-cell shard at two
// densities: round1 routes about 2·width events (touched ≈ 0.86·width,
// the first dense round's shape) and tail routes width/1024 (touched ≪
// width/64, a late sparse round, where the O(width/64) word walk
// dominates). ns/cell is per routed cell.
func BenchmarkFoldShard(b *testing.B) {
	const width = 1 << 16
	for _, bc := range []struct {
		name   string
		events int
	}{{"round1", 2 * width}, {"tail", width / 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			rt := NewRouter(2, 1, width)
			ta := stampedTally(width)
			src := rng.New(5)
			for k := 0; k < bc.events; k++ {
				lanes := rt.Lanes(k % 2)
				lanes[0] = append(lanes[0], int32(src.Intn(width)))
			}
			var touched int
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				ta.StampedReset()
				touched = len(rt.FoldShard(0, ta))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.events), "ns/cell")
			b.ReportMetric(float64(touched), "touched")
		})
	}
}
