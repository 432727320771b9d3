package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/rng"
)

// driverEquivalenceCase runs the same configuration through the Runner
// (dense single-worker reference) and through Driver+LocalBank across
// client worker counts and shard counts, and fails unless every Result —
// PerRound series, load vectors, assignments, all of it — is bit-for-bit
// identical. This is the contract the wire transport inherits: the
// Driver is its client side (its phases fan out over the worker pool),
// the LocalBank stands where the remote shard processes will.
func driverEquivalenceCase(t *testing.T, name string, topo bipartite.Topology, cfg Config) {
	t.Helper()
	ref := func() *Result {
		rcfg := cfg
		rcfg.Workers = 1
		rcfg.Engine = EngineDense
		res, err := rcfg.Run(topo)
		if err != nil {
			t.Fatalf("%s: runner reference failed: %v", name, err)
		}
		return normalizedResult(res)
	}()
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 3, 8} {
			wcfg := cfg
			wcfg.Workers = workers
			dr, err := NewLocalDriver(topo, wcfg, shards)
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			res, err := dr.Run()
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			got := normalizedResult(res)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: driver workers=%d shards=%d diverges from runner reference:\n  ref=%+v\n  got=%+v",
					name, workers, shards, ref, got)
			}
		}
	}
}

func TestDriverMatchesRunner(t *testing.T) {
	n := 1024
	g := regularGraph(t, n, 40, 77)
	for _, variant := range []Variant{SAER, RAES} {
		// c=4: fast completion; c=2: heavy burning and saturation.
		for _, c := range []float64{4, 2} {
			cfg := NewConfig(variant, 2, c, 0xFEED)
			cfg.TrackRounds = true
			cfg.TrackNeighborhoods = true
			cfg.TrackLoads = true
			cfg.TrackAssignments = true
			driverEquivalenceCase(t, variant.String(), g, cfg)
		}
	}
}

func TestDriverMatchesRunnerIrregularGraph(t *testing.T) {
	g, err := gen.TrustSubset(768, 640, 48, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(SAER, 3, 3, 99)
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	driverEquivalenceCase(t, "trust-subset", g, cfg)
}

func TestDriverMatchesRunnerDynamicState(t *testing.T) {
	// The churn scheduler's epoch shape: pre-loaded servers (some at or
	// beyond capacity) and per-client request counts, the state a wire
	// executor must carry across epochs.
	n := 512
	g := regularGraph(t, n, 24, 31)
	cfg := NewConfig(SAER, 2, 4, 13)
	cfg.MaxRounds = 300
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	cfg.InitialLoads = make([]int, n)
	cfg.RequestCounts = make([]int, n)
	src := rng.New(42)
	capacity := cfg.Params().Capacity()
	for i := 0; i < n; i++ {
		cfg.InitialLoads[i] = src.Intn(capacity + 2) // some start burned
		cfg.RequestCounts[i] = src.Intn(cfg.D + 1)   // some start finished
	}
	driverEquivalenceCase(t, "dynamic-state", g, cfg)
}

func TestDriverMatchesRunnerStarved(t *testing.T) {
	// The SAER starved-client early exit must fire on the same round.
	b := bipartite.NewBuilder(2, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(SAER, 2, 1, 1)
	cfg.MaxRounds = 50
	cfg.TrackRounds = true
	driverEquivalenceCase(t, "starved", g, cfg)
}

func TestDriverMatchesRunnerImplicitTopology(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(512, 512, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(RAES, 2, 3, 0xBEEF)
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	// The bare topology drives the Driver's point-query draw path, the
	// rowOnly wrapper its row-regeneration path; both must match the
	// Runner reference bit for bit.
	driverEquivalenceCase(t, "implicit", topo, cfg)
	driverEquivalenceCase(t, "implicit-row", rowOnly{topo}, cfg)
}

// TestDriverReseedReuse pins the trial-reuse contract: a reused Driver
// (Reseed + Run) matches a fresh one for every seed, including after a
// starved early exit left mid-round state behind.
func TestDriverReseedReuse(t *testing.T) {
	g := regularGraph(t, 256, 16, 3)
	cfg := NewConfig(SAER, 2, 2, 0)
	cfg.Workers = 2 // reuse must also reset the parallel phase state
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	reused, err := NewLocalDriver(g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		reused.Reseed(seed)
		got, err := reused.Run()
		if err != nil {
			t.Fatal(err)
		}
		fcfg := cfg
		fcfg.Seed = seed
		fresh, err := NewLocalDriver(g, fcfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d: reused driver diverges from fresh driver:\n  fresh=%+v\n  reused=%+v", seed, want, got)
		}
	}
}
