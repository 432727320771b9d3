package gen

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// skipFromUniformTwoLog is the skip as it was computed before log(1−p)
// was hoisted out of the walk: both logs per entry. It is the reference
// the hoisted skip must reproduce bit for bit.
func skipFromUniformTwoLog(u, p float64) int {
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	skip := int(math.Floor(math.Log(u) / math.Log(1-p)))
	if skip < 0 {
		skip = 0
	}
	return skip
}

// TestSkipFromUniformHoistedLog pins that passing a precomputed
// log(1−p) leaves every skip unchanged, on a million uniforms per p plus
// the boundary values (u = 0 maps to the smallest positive float).
func TestSkipFromUniformHoistedLog(t *testing.T) {
	const draws = 1 << 20
	for _, p := range []float64{1e-6, 256.0 / (1 << 16), 0.07, 0.5} {
		logq := math.Log(1 - p)
		src := rng.New(uint64(p * 1e9))
		us := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(1, 0), 0.5}
		for i := 0; i < draws; i++ {
			us = append(us, src.Float64())
		}
		for _, u := range us {
			if got, want := skipFromUniform(u, logq), skipFromUniformTwoLog(u, p); got != want {
				t.Fatalf("p=%v u=%v: hoisted skip %d, two-log skip %d", p, u, got, want)
			}
		}
	}
}

// TestErdosRenyiPrefixContract checks the bipartite.PrefixQueryable
// contract on the Erdős–Rényi skip-sampler: for random clients and every
// k in [0, deg], AppendClientNeighborsPrefix(v, k, buf) equals the first
// k entries the full row appends after buf. The instances cover
// ordinary rows, fallback-only rows (p = 0 with ensure: every row is the
// single fallback edge) and the complete p = 1 row.
func TestErdosRenyiPrefixContract(t *testing.T) {
	cases := []struct {
		name string
		p    float64
	}{{"sparse", 0.07}, {"dense", 0.5}, {"fallback-only", 0}, {"complete", 1}}
	for _, tc := range cases {
		topo, err := ErdosRenyiImplicit(300, 90, tc.p, true, 17)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var pq bipartite.PrefixQueryable = topo
		src := rng.New(5)
		for trial := 0; trial < 40; trial++ {
			v := src.Intn(topo.NumClients())
			head := []int32{-7, -8, -9}
			full := topo.AppendClientNeighbors(v, append([]int32(nil), head...))
			deg := topo.ClientDegree(v)
			if len(full) != len(head)+deg {
				t.Fatalf("%s: client %d row has %d entries, degree %d", tc.name, v, len(full)-len(head), deg)
			}
			for k := 0; k <= deg; k++ {
				got := pq.AppendClientNeighborsPrefix(v, k, nil)
				if !slices.Equal(got, full[len(head):len(head)+k]) {
					t.Fatalf("%s: client %d prefix k=%d = %v, want %v", tc.name, v, k, got, full[len(head):len(head)+k])
				}
				withHead := pq.AppendClientNeighborsPrefix(v, k, append([]int32(nil), head...))
				if !slices.Equal(withHead, full[:len(head)+k]) {
					t.Fatalf("%s: client %d prefix k=%d after a non-empty buf = %v, want %v",
						tc.name, v, k, withHead, full[:len(head)+k])
				}
			}
		}
	}
}
