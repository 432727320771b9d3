package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// rowOnly hides a topology's point-query, prefix-query (and version)
// support — embedding the bare Topology interface promotes nothing else
// — forcing the engines onto the whole-row regeneration path: the
// baseline the point-query and prefix equivalence cases and
// BenchmarkPointQueryDraw compare against, and the way the row-cache
// tests keep exercising the cache now that point-queryable families skip
// it. Only wrap implicit
// topologies: a wrapped *Graph would lose the engines' zero-copy
// special case but keep the aliasing AppendClientNeighbors, violating
// the feedback-buffer contract.
type rowOnly struct{ bipartite.Topology }

// TestPointQueryViewSelection pins which topologies the engines draw
// point-wise from: the Feistel families answer point queries, the
// sequential skip-sampler (Erdős–Rényi) does not, and the rowOnly
// wrapper hides support.
func TestPointQueryViewSelection(t *testing.T) {
	reg, err := gen.RegularImplicit(64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(reg) == nil {
		t.Error("regular implicit topology does not answer point queries")
	}
	if bipartite.PointQuerier(rowOnly{reg}) != nil {
		t.Error("rowOnly wrapper still answers point queries")
	}
	er, err := gen.ErdosRenyiImplicit(64, 64, 0.2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(er) != nil {
		t.Error("Erdős–Rényi skip-sampler unexpectedly answers point queries")
	}
	csr, err := reg.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(csr) == nil {
		t.Error("CSR graph does not answer point queries")
	}
}

// TestPointQueryDrawEquivalence is the tentpole's proof obligation in
// one place: for every point-queryable family, the point-query draw
// path and the forced row-regeneration path must produce bit-for-bit
// identical Results across engine modes, worker counts, shard counts
// and steal schedules — all against the dense single-worker CSR
// reference. (The broader topology/steal/driver matrices sweep the same
// contract at scale; this test isolates the two access paths.)
func TestPointQueryDrawEquivalence(t *testing.T) {
	type fam struct {
		name string
		topo *gen.Implicit
	}
	mk := func(name string, topo *gen.Implicit, err error) fam {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fam{name, topo}
	}
	regular, regularErr := gen.RegularImplicit(1024, 40, 0xABCD)
	trust, trustErr := gen.TrustSubsetImplicit(800, 700, 36, 0x7057)
	almost, almostErr := gen.AlmostRegularImplicit(gen.DefaultAlmostRegularConfig(512), 21)
	families := []fam{
		mk("regular", regular, regularErr),
		mk("trust-subset", trust, trustErr),
		mk("almost-regular", almost, almostErr),
	}
	p := Params{D: 2, C: 2.5, Seed: 0xFEED}
	opts := Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	for _, fam := range families {
		if bipartite.PointQuerier(fam.topo) == nil {
			t.Fatalf("%s: family is not point-queryable", fam.name)
		}
		csr, err := fam.topo.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		ref := func() *Result {
			pp := p
			pp.Workers = 1
			oo := opts
			oo.Engine = EngineDense
			res, err := Run(csr, SAER, pp, oo)
			if err != nil {
				t.Fatalf("%s: CSR reference: %v", fam.name, err)
			}
			return normalizedResult(res)
		}()
		paths := []struct {
			name string
			topo bipartite.Topology
		}{{"point-query", fam.topo}, {"row-regen", rowOnly{fam.topo}}}
		for _, path := range paths {
			for _, mode := range []EngineMode{EngineDense, EngineSparse, EngineAuto} {
				for _, workers := range []int{1, 2, 4} {
					for _, shards := range []int{1, 3} {
						for _, steal := range stealModes() {
							pp := p
							pp.Workers = workers
							oo := opts
							oo.Engine = mode
							oo.Shards = shards
							oo.Steal = steal
							res, err := Run(path.topo, SAER, pp, oo)
							if err != nil {
								t.Fatalf("%s/%s mode=%d workers=%d shards=%d steal=%d: %v",
									fam.name, path.name, mode, workers, shards, steal, err)
							}
							if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
								t.Errorf("%s/%s: mode=%d workers=%d shards=%d steal=%d diverges from CSR reference",
									fam.name, path.name, mode, workers, shards, steal)
							}
						}
					}
				}
			}
		}
	}
}

// TestPointQueryAutotuneDivisor pins the re-derived implicit-big-Δ
// divisor rule: the early sparse switch existed to flee the Θ(Δ) row
// regeneration tax, so it must fire only when rows are actually
// regenerated — not for point-queryable implicit families, whose dense
// rounds now cost CSR-like work.
func TestPointQueryAutotuneDivisor(t *testing.T) {
	topo, err := gen.RegularImplicit(1<<16, 64, 0xCAFE)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(SAER, 2, 2, 1)
	cfg.Workers = 1
	if got := cfg.ResolveKnobs(topo).SparseSwitchDivisor; got != defaultSparseSwitchDivisor {
		t.Errorf("point-queryable implicit big-Δ instance resolved divisor %d, want default %d",
			got, defaultSparseSwitchDivisor)
	}
	if got := cfg.ResolveKnobs(rowOnly{topo}).SparseSwitchDivisor; got != 2 {
		t.Errorf("row-regenerating implicit big-Δ instance resolved divisor %d, want 2", got)
	}
	csr, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.ResolveKnobs(csr).SparseSwitchDivisor; got != defaultSparseSwitchDivisor {
		t.Errorf("CSR big-Δ instance resolved divisor %d, want default %d", got, defaultSparseSwitchDivisor)
	}
}
