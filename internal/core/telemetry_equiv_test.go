package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/telemetry"
)

// TestTelemetryEquivalence pins the telemetry layer's core contract:
// attaching a registry is pure observation. The same configuration runs
// un-instrumented (the reference) and instrumented across engine modes,
// worker counts and shard counts, and every Result must be bit-for-bit
// identical — any divergence means an instrument leaked into the random
// process or the round schedule.
func TestTelemetryEquivalence(t *testing.T) {
	n := 1024
	g := regularGraph(t, n, 40, 77)
	opts := Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	for _, variant := range []Variant{SAER, RAES} {
		for _, c := range []float64{4, 2} {
			p := Params{D: 2, C: c, Seed: 0xFEED}
			ref := func() *Result {
				pp := p
				pp.Workers = 1
				oo := opts
				oo.Engine = EngineDense
				res, err := Run(g, variant, pp, oo)
				if err != nil {
					t.Fatalf("%s c=%v: reference failed: %v", variant, c, err)
				}
				return normalizedResult(res)
			}()
			for _, mode := range []EngineMode{EngineDense, EngineSparse, EngineAuto} {
				for _, workers := range []int{1, 4} {
					for _, shards := range []int{0, 3} {
						reg := telemetry.NewRegistry()
						pp := p
						pp.Workers = workers
						oo := opts
						oo.Engine = mode
						oo.Shards = shards
						oo.Telemetry = reg
						res, err := Run(g, variant, pp, oo)
						if err != nil {
							t.Fatalf("%s c=%v mode=%d workers=%d shards=%d: %v", variant, c, mode, workers, shards, err)
						}
						if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
							t.Errorf("%s c=%v: instrumented run (mode=%d workers=%d shards=%d) diverges from un-instrumented reference",
								variant, c, mode, workers, shards)
						}
						// The instruments must actually have counted the run.
						snap := reg.Snapshot()
						if got := snap.Counters["saer_rounds_total"]; got != int64(res.Rounds) {
							t.Errorf("%s c=%v mode=%d workers=%d shards=%d: saer_rounds_total=%d, want %d",
								variant, c, mode, workers, shards, got, res.Rounds)
						}
						if got := snap.Counters["saer_requests_total"]; got != res.TotalRequests {
							t.Errorf("%s c=%v mode=%d workers=%d shards=%d: saer_requests_total=%d, want %d",
								variant, c, mode, workers, shards, got, res.TotalRequests)
						}
						if h, ok := snap.Histograms[`saer_phase_seconds{phase="draw"}`]; !ok || h.Count != int64(res.Rounds) {
							t.Errorf("%s c=%v mode=%d workers=%d shards=%d: draw-phase histogram count=%d, want %d",
								variant, c, mode, workers, shards, h.Count, res.Rounds)
						}
					}
				}
			}
		}
	}
}

// TestTelemetryEquivalenceDriver repeats the contract on the split
// client/server execution: a Driver over a LocalBank with a registry
// attached must reproduce the un-instrumented Runner bit for bit, and
// the shared instrument names must tally the driver's rounds.
func TestTelemetryEquivalenceDriver(t *testing.T) {
	g := regularGraph(t, 1024, 40, 77)
	cfg := NewConfig(SAER, 2, 2, 0xFEED)
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	ref := func() *Result {
		rcfg := cfg
		rcfg.Workers = 1
		rcfg.Engine = EngineDense
		res, err := rcfg.Run(g)
		if err != nil {
			t.Fatalf("reference failed: %v", err)
		}
		return normalizedResult(res)
	}()
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 3} {
			reg := telemetry.NewRegistry()
			wcfg := cfg
			wcfg.Workers = workers
			wcfg.Telemetry = reg
			dr, err := NewLocalDriver(g, wcfg, shards)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			res, err := dr.Run()
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
				t.Errorf("instrumented driver (workers=%d shards=%d) diverges from un-instrumented runner", workers, shards)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["saer_rounds_total"]; got != int64(res.Rounds) {
				t.Errorf("workers=%d shards=%d: saer_rounds_total=%d, want %d", workers, shards, got, res.Rounds)
			}
		}
	}
}

// TestTelemetryEquivalenceRepeatedRuns pins that a shared registry
// accumulates across reseeded runs without perturbing them: two trials
// on one instrumented Runner equal two un-instrumented trials, and the
// round counter holds the sum.
func TestTelemetryEquivalenceRepeatedRuns(t *testing.T) {
	g := regularGraph(t, 512, 30, 9)
	reg := telemetry.NewRegistry()
	cfg := NewConfig(RAES, 2, 3, 1)
	icfg := cfg
	icfg.Telemetry = reg
	r, err := icfg.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	totalRounds := 0
	for trial := 0; trial < 2; trial++ {
		seed := uint64(100 + trial)
		r.Reseed(seed)
		got := r.Run()
		rcfg := cfg
		rcfg.Seed = seed
		want, err := rcfg.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizedResult(got), normalizedResult(want)) {
			t.Errorf("trial %d: instrumented reseeded run diverges from fresh un-instrumented run", trial)
		}
		totalRounds += got.Rounds
	}
	if got := reg.Snapshot().Counters["saer_rounds_total"]; got != int64(totalRounds) {
		t.Errorf("saer_rounds_total=%d after two trials, want %d", got, totalRounds)
	}
}

// countingPrefix forwards a prefix-queryable topology and counts the
// prefix regenerations the draw kernel asks it for.
type countingPrefix struct {
	bipartite.PrefixQueryable
	prefixes atomic.Int64
}

func (c *countingPrefix) AppendClientNeighborsPrefix(v, k int, buf []int32) []int32 {
	c.prefixes.Add(1)
	return c.PrefixQueryable.AppendClientNeighborsPrefix(v, k, buf)
}

// TestTelemetryEquivalenceErdosRenyi repeats the contract on the
// Erdős–Rényi skip-sampler, whose draws take the prefix path and, in the
// long tail, the Runner's RowCache snapshot. Results must be bit-for-bit
// identical instrumented vs not, and the row-cache counters must be
// exact: the draw kernel consults the cache once per client visit while
// a snapshot is live and regenerates a prefix only when it misses, so
// hits plus prefix regenerations equals the client visits of the run —
// which the dense engine, which never snapshots, counts as prefix
// regenerations alone. Equivalently, hits + misses equals the visits made
// while the snapshot was live. No whole-row consumer may read the cache
// for the count to hold, so the cases track no neighborhoods and the
// SAER case checks that its starvation check never ran.
func TestTelemetryEquivalenceErdosRenyi(t *testing.T) {
	er, err := gen.ErdosRenyiImplicit(2048, 2048, 0.04, true, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	for _, variant := range []Variant{SAER, RAES} {
		p := Params{D: 2, C: 1.5, Seed: 0xFEED}
		ref, err := Run(er, variant, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if variant == SAER {
			for _, rs := range ref.PerRound {
				if rs.RequestsAccepted == 0 && rs.NewlyBurned == 0 {
					t.Fatalf("setup broken: SAER round %d ran the starvation check", rs.Round)
				}
			}
		}
		visits := func() int64 {
			topo := &countingPrefix{PrefixQueryable: er}
			oo := opts
			oo.Engine = EngineDense
			if _, err := Run(topo, variant, p, oo); err != nil {
				t.Fatal(err)
			}
			return topo.prefixes.Load()
		}()
		for _, mode := range []EngineMode{EngineDense, EngineSparse, EngineAuto} {
			for _, workers := range []int{1, 3} {
				for _, shards := range []int{0, 2} {
					reg := telemetry.NewRegistry()
					topo := &countingPrefix{PrefixQueryable: er}
					pp := p
					pp.Workers = workers
					oo := opts
					oo.Engine = mode
					oo.Shards = shards
					oo.Telemetry = reg
					res, err := Run(topo, variant, pp, oo)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(normalizedResult(res), normalizedResult(ref)) {
						t.Errorf("%s mode=%d workers=%d shards=%d: instrumented run diverges from un-instrumented reference",
							variant, mode, workers, shards)
					}
					snap := reg.Snapshot()
					hits := snap.Counters["saer_rowcache_hits_total"]
					misses := snap.Counters["saer_rowcache_misses_total"]
					if got := hits + topo.prefixes.Load(); got != visits {
						t.Errorf("%s mode=%d workers=%d shards=%d: hits %d + prefix regenerations %d = %d, want %d client visits",
							variant, mode, workers, shards, hits, topo.prefixes.Load(), got, visits)
					}
					if mode != EngineDense && hits == 0 {
						t.Errorf("%s mode=%d workers=%d shards=%d: long tail never hit the row cache", variant, mode, workers, shards)
					}
					if misses != 0 {
						t.Errorf("%s mode=%d workers=%d shards=%d: %d row-cache misses, want 0 (the snapshot covers every later frontier client)",
							variant, mode, workers, shards, misses)
					}
				}
			}
		}
	}
}
