package gen

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// TestSkipWalkMatchesExact pins that the fast skip equals the exact
// expression skipFromUniform on 2²² stream uniforms per p, on the
// boundary values, and on the inputs where the exact quotient is nearest
// an integer: ±4 ulps around u = exp(s·logq). It also proves the guard
// does the work: on the near-threshold inputs it must fall back for
// every p, and some of the inputs it rejected must be ones where the
// unguarded fast floor is wrong.
func TestSkipWalkMatchesExact(t *testing.T) {
	const draws = 1 << 22
	wrongFloors := 0
	for _, p := range []float64{1e-9, 1e-6, 256.0 / (1 << 16), 484.0 / (1 << 22), 0.07, 0.5, 0.99} {
		w, ok := newSkipWalk(p)
		if !ok {
			t.Fatalf("p=%v: no server can be present", p)
		}
		check := func(u float64) {
			if got, want := w.skip(u), skipFromUniform(u, w.logq); got != want {
				t.Fatalf("p=%v u=%v (%#x): fast skip %d, exact skip %d", p, u, math.Float64bits(u), got, want)
			}
		}
		for _, u := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-53, 0.5, math.Nextafter(1, 0)} {
			check(u)
		}
		src := rng.New(uint64(p*1e12) + 1)
		fallbacks := 0
		for i := 0; i < draws; i++ {
			u := src.Float64()
			check(u)
			if _, ok := w.exactFloor(w.quotient(u)); !ok {
				fallbacks++
			}
		}
		if fallbacks > draws/100 {
			t.Errorf("p=%v: %d of %d stream uniforms fell back to math.Log", p, fallbacks, draws)
		}
		guarded := 0
		for s := 0; s < 20000; s++ {
			u := math.Exp(float64(s) * w.logq)
			if u < 0x1p-1022 {
				break
			}
			for k := 0; k < 4; k++ {
				u = math.Nextafter(u, 0)
			}
			for k := -4; k <= 4; k++ {
				check(u)
				if y := w.quotient(u); u >= 0x1p-1022 && y >= 0 {
					if _, ok := w.exactFloor(y); !ok {
						guarded++
						if int(math.Floor(y)) != skipFromUniform(u, w.logq) {
							wrongFloors++
						}
					}
				}
				u = math.Nextafter(u, 2)
			}
		}
		t.Logf("p=%v: %d of %d stream uniforms and %d near-threshold inputs fell back", p, fallbacks, draws, guarded)
		if guarded == 0 {
			t.Errorf("p=%v: the guard never fell back on a near-threshold input", p)
		}
	}
	t.Logf("%d rejected near-threshold inputs had a wrong unguarded floor", wrongFloors)
	if wrongFloors == 0 {
		t.Errorf("no near-threshold input had a wrong unguarded fast floor: the test does not exercise the guard")
	}
}

// TestErdosRenyiTinyP pins that an edge probability so small that 1−p
// rounds to 1 (log(1−p) = 0) yields no present server: every row is the
// p = 0 row, which holds only the ensure-clients fallback edge, in the
// implicit topology, the materialized twin and ErdosRenyiRow.
func TestErdosRenyiTinyP(t *testing.T) {
	const n = 1000
	ref, err := ErdosRenyiImplicit(n, n, 0, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	refGraph, err := ErdosRenyi(n, n, 0, true, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{math.SmallestNonzeroFloat64, 1e-17, 0x1p-54} {
		topo, err := ErdosRenyiImplicit(n, n, p, true, 1)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if topo.MaxClientDegree() != 1 {
			t.Fatalf("p=%v: implicit max degree %d, want 1", p, topo.MaxClientDegree())
		}
		g, err := ErdosRenyi(n, n, p, true, rng.New(1))
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if g.NumEdges() != n {
			t.Fatalf("p=%v: materialized graph has %d edges, want %d", p, g.NumEdges(), n)
		}
		for v := 0; v < n; v++ {
			if got, want := topo.AppendClientNeighbors(v, nil), ref.AppendClientNeighbors(v, nil); !slices.Equal(got, want) {
				t.Fatalf("p=%v client %d: implicit row %v, p = 0 row %v", p, v, got, want)
			}
			if got, want := g.ClientNeighbors(v), refGraph.ClientNeighbors(v); !slices.Equal(got, want) {
				t.Fatalf("p=%v client %d: materialized row %v, p = 0 row %v", p, v, got, want)
			}
			s, s0 := rng.StreamAt(5, v), rng.StreamAt(5, v)
			if got, want := ErdosRenyiRow(&s, n, p, true, nil), ErdosRenyiRow(&s0, n, 0, true, nil); !slices.Equal(got, want) || len(got) != 1 {
				t.Fatalf("p=%v client %d: ErdosRenyiRow %v, p = 0 row %v", p, v, got, want)
			}
		}
		if _, err := ErdosRenyiImplicit(n, n, p, false, 1); !errors.Is(err, bipartite.ErrIsolatedClient) {
			t.Fatalf("p=%v without ensureClients: err %v, want ErrIsolatedClient", p, err)
		}
	}
}

// TestErdosRenyiRejectsNaN pins that a NaN edge probability is an error
// for both Erdős–Rényi constructors, like any p outside [0, 1].
func TestErdosRenyiRejectsNaN(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ErdosRenyi(10, 10, p, true, rng.New(1)); err == nil {
			t.Errorf("ErdosRenyi accepted p=%v", p)
		}
		if _, err := ErdosRenyiImplicit(10, 10, p, true, 1); err == nil {
			t.Errorf("ErdosRenyiImplicit accepted p=%v", p)
		}
	}
}

// FuzzSkipFromUniform checks fast skip == exact skip over arbitrary
// uniform bit patterns (NaN, infinities, negatives, subnormals and
// values ≥ 1 included) and every edge probability that admits a present
// server.
func FuzzSkipFromUniform(f *testing.F) {
	f.Add(math.Float64bits(0.5), 256.0/(1<<16))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), 1e-9)
	f.Add(uint64(1), 0.07)
	f.Fuzz(func(t *testing.T, ubits uint64, p float64) {
		w, ok := newSkipWalk(p)
		if !ok {
			t.Skip("no server can be present")
		}
		u := math.Float64frombits(ubits)
		if got, want := w.skip(u), skipFromUniform(u, w.logq); got != want {
			t.Fatalf("p=%v u=%v (%#x): fast skip %d, exact skip %d", p, u, ubits, got, want)
		}
	})
}
