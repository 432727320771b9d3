package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

func TestOptionsValidation(t *testing.T) {
	g := regularGraph(t, 64, 8, 1)
	p := Params{D: 2, C: 4, Seed: 1}
	if _, err := NewRunner(g, SAER, p, Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := NewRunner(g, SAER, p, Options{SparseSwitchDivisor: -2}); err == nil {
		t.Error("negative SparseSwitchDivisor accepted")
	}
	for _, opts := range []Options{{Shards: 1}, {Shards: 8}, {SparseSwitchDivisor: 1}, {SparseSwitchDivisor: 64}} {
		if _, err := NewRunner(g, SAER, p, opts); err != nil {
			t.Errorf("valid options %+v rejected: %v", opts, err)
		}
	}
}

// TestSparseSwitchDivisorIsPerfKnob checks that the promoted
// Options.SparseSwitchDivisor only moves the dense→sparse switch point,
// never the outcome: divisor 1 goes sparse on round one, 64 stays dense
// almost to the end, and both must match the default bit for bit.
func TestSparseSwitchDivisorIsPerfKnob(t *testing.T) {
	g := regularGraph(t, 1024, 40, 77)
	p := Params{D: 2, C: 2, Seed: 0xFEED}
	opts := Options{TrackRounds: true, TrackLoads: true}
	ref, err := Run(g, SAER, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, divisor := range []int{1, 2, 4, 16, 64} {
		for _, shards := range []int{1, 3} {
			oo := opts
			oo.SparseSwitchDivisor = divisor
			oo.Shards = shards
			res, err := Run(g, SAER, p, oo)
			if err != nil {
				t.Fatalf("divisor=%d shards=%d: %v", divisor, shards, err)
			}
			if !reflect.DeepEqual(normalizedResult(res), normalizedResult(ref)) {
				t.Errorf("divisor=%d shards=%d diverges from the default divisor", divisor, shards)
			}
		}
	}
}

// TestShardedRunnerReuseAfterStarvedRun is the sharded counterpart of
// TestRunnerReuseAfterStarvedRun: a starved early exit abandons the round
// between the phase-B fold and the round-end reset, leaving the router's
// touched lists and the folded counts dirty; resetState must discard both
// so a reused Runner matches a fresh one.
func TestShardedRunnerReuseAfterStarvedRun(t *testing.T) {
	b := bipartite.NewBuilder(4, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	b.AddEdge(2, 0).AddEdge(2, 1)
	b.AddEdge(3, 1)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{D: 2, C: 1.5, Seed: 0, MaxRounds: 50, Workers: 2}
	opts := Options{TrackRounds: true, TrackLoads: true, Shards: 2}
	r, err := NewRunner(g, SAER, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	starved := 0
	for dirtySeed := uint64(0); dirtySeed < 8; dirtySeed++ {
		r.Reseed(dirtySeed)
		if r.Run().Completed {
			continue
		}
		starved++
		for reseed := uint64(100); reseed < 108; reseed++ {
			r.Reseed(reseed)
			reused := r.Run()
			pp := p
			pp.Seed = reseed
			fresh, err := Run(g, SAER, pp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizedResult(reused), normalizedResult(fresh)) {
				t.Fatalf("dirty=%d reseed=%d: reused sharded Runner diverges from fresh Runner",
					dirtySeed, reseed)
			}
			r.Reseed(dirtySeed)
			r.Run()
		}
	}
	if starved == 0 {
		t.Fatal("setup broken: no seed produced a starved run")
	}
}

// TestShardedRowCacheMemoryGuard pins the frontier row cache's memory
// bound on an implicit topology at the scale the implicit layer is for
// (n = 2¹⁶, the sweep engine's implicit threshold, where the edge budget
// is n rather than its small-n floor): a near-threshold c forces a long
// sparse tail, the cache must activate during it, stay within the edge
// budget (a small fraction of what the CSR twin would materialize), and
// leave results bit-for-bit equal to the materialized run. The topology
// is wrapped rowOnly: point-queryable families skip the cache entirely
// (their draws never touch rows), and this test exercises the
// row-regeneration path the cache exists for.
func TestShardedRowCacheMemoryGuard(t *testing.T) {
	n := 1 << 16
	topo, err := gen.RegularImplicit(n, 64, 0xCAFE)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{D: 2, C: 2, Seed: 9, Workers: 2}
	opts := Options{TrackRounds: true, TrackLoads: true, Shards: 4}
	r, err := NewRunner(rowOnly{topo}, SAER, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 2; trial++ {
		seed := 9 + trial
		r.Reseed(seed)
		res := r.Run()
		if !r.rowCacheBuilt() {
			t.Fatalf("trial %d: run never activated the frontier row cache (rounds=%d)", trial, res.Rounds)
		}
		budget := rowCacheEdgeBudget(n)
		if got := r.rowCache.CachedEdges(); got > budget {
			t.Fatalf("trial %d: cache holds %d edges, budget %d", trial, got, budget)
		}
		// 4 bytes per cached edge against the CSR twin's 8 bytes per edge
		// (client + server arrays): the cache must stay a small fraction.
		cacheBytes := 4 * r.rowCache.CachedEdges()
		csrBytes := 8 * csr.NumEdges()
		if cacheBytes*10 > csrBytes {
			t.Fatalf("trial %d: cache %d B exceeds 10%% of the CSR twin's %d B", trial, cacheBytes, csrBytes)
		}
		pp := p
		pp.Seed = seed
		fromCSR, err := Run(csr, SAER, pp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizedResult(res), normalizedResult(fromCSR)) {
			t.Fatalf("trial %d: cached implicit run diverges from the CSR run", trial)
		}
	}
}

// TestRowCacheInvalidatedOnSwap guards the staleness hazard: after
// SwapTopology the cached rows describe the old graph and must not be
// served.
func TestRowCacheInvalidatedOnSwap(t *testing.T) {
	n := 1 << 10
	first, err := gen.RegularImplicit(n, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := gen.RegularImplicit(n, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{D: 2, C: 2, Seed: 5, Workers: 2}
	opts := Options{TrackLoads: true, Shards: 2}
	r, err := NewRunner(rowOnly{first}, SAER, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if !r.rowCacheBuilt() {
		t.Fatal("setup broken: first run did not build the row cache")
	}
	if err := r.SwapTopology(rowOnly{second}); err != nil {
		t.Fatal(err)
	}
	r.Reseed(5)
	swapped := r.Run()
	fresh, err := Run(second, SAER, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizedResult(swapped), normalizedResult(fresh)) {
		t.Fatal("run after SwapTopology diverges from a fresh run: stale cached rows served")
	}
}
