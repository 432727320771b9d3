package engine

import "math/bits"

// Router is the substrate of the sharded round pipeline (see the round
// loop in internal/core): instead of every phase-A worker bumping a
// private size-wide tally that a later pass folds, workers bucket each
// event's destination cell into per-(worker, shard) route lanes, and
// phase-B shard owners fold one shard's lanes at a time into the shared
// counts array. All writes to a shard's counts happen on the goroutine
// that owns the shard and land inside one contiguous 2^shift-cell window,
// so they are cache-blocked; and because only routed cells are ever
// written, the O(size × workers) dense merge and reset passes disappear —
// folding costs O(routed events), and with the stamped tally (the global
// level of the two-level SPA accumulator, see Tally.BeginStamped) the
// round-end reset is a single O(1) epoch advance: no zeroing pass ever
// streams the counts array, so the pipeline's per-round resident set is
// one shard window even when the tally itself outgrows L2.
//
// Shards are contiguous cell ranges of width 2^shift: routing in the
// phase-A inner loop is a single shift (ShardOf). The width is derived
// from a target shard count so that the actual count lands in
// [target, 2·target] whenever size ≥ target — every owner gets work, and
// a finer split only shrinks the per-fold cache window.
//
// Determinism: a shard's fold visits lanes in (worker, append) order,
// which varies with the worker count — but a fold only produces per-cell
// sums and a touched set, and it emits the set in ascending cell order
// from an occupancy bitmap (the SPA's occupancy bits beside the
// accumulator), so its output is independent of the worker count, the
// shard count and the order the lanes were filled in. Simulation results
// stay bit-for-bit identical across worker AND shard counts; the
// equivalence tests in internal/core sweep both.
type Router struct {
	workers int
	shards  int
	shift   uint
	// lanes[w*shards+s] holds the cells worker w routed to shard s this
	// round. Truncated (capacity kept) by ResetLanes.
	lanes [][]int32
	// touched[s] is the ascending list of cells shard s's last fold
	// incremented — reused across rounds for its capacity.
	touched [][]int32
	// occ is the occupancy bitmap the folds mark first touches in: cell
	// i is bit i&(1<<wshift-1) of word i>>wshift, with wshift =
	// min(shift, 6). A shard owns 2^(shift-wshift) whole words — one
	// word when it is narrower than 64 cells — so concurrent shard
	// owners never write the same word. FoldShard clears every word it
	// reads while emitting, so the bitmap is all zero between folds.
	occ    []uint64
	wshift uint
	// topoVersion is the topology version the lanes were last synced to
	// (see bipartite.Versioned and SyncTopologyVersion). Static
	// topologies leave it zero.
	topoVersion uint64
}

// NewRouter returns a Router for `workers` phase-A workers over a counts
// array of `size` cells, splitting it into about targetShards shards.
func NewRouter(workers, targetShards, size int) *Router {
	if workers < 1 {
		workers = 1
	}
	if targetShards < 1 {
		targetShards = 1
	}
	shift := uint(0)
	if size > targetShards {
		// Largest power-of-two width with ceil(size/width) ≥ targetShards:
		// width ≤ size/targetShards < 2·width, so the shard count is in
		// [targetShards, 2·targetShards].
		shift = uint(bits.Len64(uint64(size/targetShards))) - 1
	}
	width := 1 << shift
	shards := (size + width - 1) / width
	if shards < 1 {
		shards = 1
	}
	wshift := min(shift, 6)
	return &Router{
		workers: workers,
		shards:  shards,
		shift:   shift,
		lanes:   make([][]int32, workers*shards),
		touched: make([][]int32, shards),
		occ:     make([]uint64, shards<<(shift-wshift)),
		wshift:  wshift,
	}
}

// Shards returns the number of shards the cell range was split into.
func (rt *Router) Shards() int { return rt.shards }

// Shift returns the routing shift: cell i belongs to shard i >> Shift().
// Phase-A inner loops use the shift directly rather than calling ShardOf
// per event.
func (rt *Router) Shift() uint { return rt.shift }

// ShardOf returns the shard owning cell i.
func (rt *Router) ShardOf(i int32) int { return int(i) >> rt.shift }

// Lanes returns worker w's shard-indexed lane view: phase A appends cell
// i to Lanes(w)[i>>Shift()]. The returned slice aliases the Router's
// state; each worker must only touch its own view.
func (rt *Router) Lanes(w int) [][]int32 {
	return rt.lanes[w*rt.shards : (w+1)*rt.shards : (w+1)*rt.shards]
}

// ResetLanes truncates every lane, keeping capacity. Call at the start of
// each routed round.
func (rt *Router) ResetLanes() {
	for i := range rt.lanes {
		rt.lanes[i] = rt.lanes[i][:0]
	}
}

// FoldShard folds every worker's lane of shard s into the stamped tally's
// merged view and returns the shard's touched list: the cells first
// stamped this epoch, strictly ascending. The tally must be in stamped
// mode (Tally.BeginStamped): a first touch is detected by the cell's
// merged stamp differing from the current epoch, so the shard's counts
// may hold arbitrary stale values — no zeroing pass ever precedes a fold,
// and the round-end reset is the O(1) Tally.StampedReset. A first touch
// also sets the cell's occupancy bit; the list is then read off the
// shard's occupancy words in order, clearing each word as it is read, so
// the fold costs O(routed + touched + width/64) with no comparison sort
// and leaves the bitmap clean. The per-event update is branch-free (the
// stamp test selects the count and the bit through conditional moves):
// about 4 in 10 of a dense round's events are first touches, so a branch
// on it mispredicts. Because shard windows ascend, the shard-order
// concatenation of the lists is globally ascending. Shard owners call
// FoldShard for distinct s concurrently: a cell belongs to exactly one
// shard and a shard to whole occupancy words, so each (count, stamp)
// pair and each word is written by exactly one goroutine.
func (rt *Router) FoldShard(s int, t *Tally) []int32 {
	counts, stamps, epoch := t.merged, t.mergedStamp, t.epoch
	occ, wshift := rt.occ, rt.wshift
	wmask := uint32(1)<<wshift - 1
	for w := 0; w < rt.workers; w++ {
		for _, i := range rt.lanes[w*rt.shards+s] {
			c, first := counts[i]+1, uint64(0)
			if stamps[i] != epoch {
				c, first = 1, 1
			}
			counts[i] = c
			stamps[i] = epoch
			occ[i>>wshift] |= first << (uint32(i) & wmask)
		}
	}
	touched := rt.touched[s][:0]
	per := 1 << (rt.shift - wshift)
	words := occ[s*per : (s+1)*per]
	for k, b := range words {
		if b == 0 {
			continue
		}
		words[k] = 0
		base := int32(s*per+k) << wshift
		for ; b != 0; b &= b - 1 {
			touched = append(touched, base+int32(bits.TrailingZeros64(b)))
		}
	}
	rt.touched[s] = touched
	return touched
}

// SyncTopologyVersion is the router's invalidation hook for mutable
// (versioned) topologies: when the version differs from the last synced
// one, any buffered lanes and touched lists describe destinations drawn
// from rows that no longer exist, so they are discarded. It reports
// whether an invalidation happened. Callers with a static topology never
// need to call this.
func (rt *Router) SyncTopologyVersion(v uint64) bool {
	if rt.topoVersion == v {
		return false
	}
	rt.topoVersion = v
	rt.Discard()
	return true
}

// Discard truncates every lane and touched list without touching the
// tally: the reset to pair with Tally.FullReset when a run abandoned a
// round between fold and reset.
func (rt *Router) Discard() {
	rt.ResetLanes()
	for s := range rt.touched {
		rt.touched[s] = rt.touched[s][:0]
	}
}
