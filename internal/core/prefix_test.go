package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// TestErdosRenyiPrefixDrawEquivalence pins the prefix draw path: on the
// Erdős–Rényi skip-sampler, drawing every ball's index first and
// regenerating only the row prefix the largest index needs must give
// bit-for-bit the Results of the forced whole-row path (rowOnly) and of
// the materialized CSR twin — for the Runner across engine modes, worker
// counts, shard counts and steal schedules, and for the Driver over a
// LocalBank across worker and shard counts. The long-tail c keeps a
// small frontier alive for many sparse rounds, so the Runner's late-round
// RowCache snapshot interleaves with prefix draws (the test checks that
// it was built).
func TestErdosRenyiPrefixDrawEquivalence(t *testing.T) {
	er, err := gen.ErdosRenyiImplicit(2048, 2048, 0.04, true, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(er) != nil {
		t.Fatal("Erdős–Rényi topology answers point queries; the prefix path would be bypassed")
	}
	if _, ok := bipartite.Topology(rowOnly{er}).(bipartite.PrefixQueryable); ok {
		t.Fatal("rowOnly wrapper still answers prefix queries")
	}
	csr, err := er.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		topo bipartite.Topology
	}{{"prefix", er}, {"full-row", rowOnly{er}}, {"csr", csr}}
	for _, variant := range []Variant{SAER, RAES} {
		// c=3: quick completion; c=1.5: a long sparse tail.
		for _, c := range []float64{3, 1.5} {
			cfg := NewConfig(variant, 2, c, 0xFEED)
			cfg.TrackRounds = true
			cfg.TrackLoads = true
			cfg.TrackAssignments = true
			ref := func() *Result {
				rcfg := cfg
				rcfg.Workers = 1
				rcfg.Engine = EngineDense
				res, err := rcfg.Run(csr)
				if err != nil {
					t.Fatalf("%s c=%v: CSR reference: %v", variant, c, err)
				}
				return normalizedResult(res)
			}()
			for _, path := range paths {
				name := variant.String() + "/" + path.name
				for _, mode := range []EngineMode{EngineDense, EngineSparse, EngineAuto} {
					for _, workers := range []int{1, 2, 3} {
						for _, shards := range []int{1, 2, 8} {
							for _, steal := range stealModes() {
								rcfg := cfg
								rcfg.Workers = workers
								rcfg.Engine = mode
								rcfg.Shards = shards
								rcfg.Steal = steal
								r, err := rcfg.NewRunner(path.topo)
								if err != nil {
									t.Fatal(err)
								}
								res := r.Run()
								if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
									t.Errorf("%s c=%v: runner mode=%d workers=%d shards=%d steal=%d diverges from CSR reference",
										name, c, mode, workers, shards, steal)
								}
								if c == 1.5 && mode == EngineSparse && path.name != "csr" && !r.rowCacheBuilt() {
									t.Errorf("%s c=%v workers=%d shards=%d steal=%d: long tail never built the row cache (rounds=%d)",
										name, c, workers, shards, steal, res.Rounds)
								}
							}
						}
					}
				}
				for _, workers := range []int{1, 2, 3} {
					for _, shards := range []int{1, 2, 8} {
						dcfg := cfg
						dcfg.Workers = workers
						dr, err := NewLocalDriver(path.topo, dcfg, shards)
						if err != nil {
							t.Fatal(err)
						}
						res, err := dr.Run()
						if err != nil {
							t.Fatalf("%s c=%v driver workers=%d shards=%d: %v", name, c, workers, shards, err)
						}
						if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
							t.Errorf("%s c=%v: driver workers=%d shards=%d diverges from CSR reference",
								name, c, workers, shards)
						}
					}
				}
			}
		}
	}
}
