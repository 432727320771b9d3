package gen

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// ErdosRenyi returns a bipartite G(numClients, numServers, p) graph where
// every admissibility edge is present independently with probability p.
// If ensureClients is true, every client that ends up isolated receives
// one uniformly random edge so the resulting graph is usable by the
// protocols (an isolated client could never place its balls).
func ErdosRenyi(numClients, numServers int, p float64, ensureClients bool, src *rng.Source) (*bipartite.Graph, error) {
	if numClients <= 0 || numServers <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi requires positive sides, got %d clients %d servers", numClients, numServers)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("gen: ErdosRenyi requires p in [0,1], got %v", p)
	}
	b := bipartite.NewBuilder(numClients, numServers)
	w, walk := newSkipWalk(p)
	for v := 0; v < numClients; v++ {
		degree := 0
		if p >= 1 {
			for u := 0; u < numServers; u++ {
				b.AddEdge(v, u)
			}
			degree = numServers
		} else if walk {
			// Skip-sampling: jump geometric gaps between present edges so
			// the cost is proportional to the number of edges, not n².
			u := -1
			for {
				u += 1 + w.skip(src.Float64())
				if u >= numServers {
					break
				}
				b.AddEdge(v, u)
				degree++
			}
		}
		if ensureClients && degree == 0 {
			b.AddEdge(v, src.Intn(numServers))
		}
	}
	return b.Build(bipartite.KeepParallelEdges)
}

// TrustSubset returns the graph in which every client independently trusts
// k servers chosen uniformly at random without replacement. This is the
// random-cluster input model analysed by Godfrey for sequential greedy and
// the paper's motivation (i): clients only send requests to trusted
// servers.
func TrustSubset(numClients, numServers, k int, src *rng.Source) (*bipartite.Graph, error) {
	if numClients <= 0 || numServers <= 0 {
		return nil, fmt.Errorf("gen: TrustSubset requires positive sides, got %d clients %d servers", numClients, numServers)
	}
	if k <= 0 || k > numServers {
		return nil, fmt.Errorf("gen: TrustSubset requires 0 < k <= numServers, got k=%d numServers=%d", k, numServers)
	}
	b := bipartite.NewBuilder(numClients, numServers)
	for v := 0; v < numClients; v++ {
		for _, u := range src.Sample(numServers, k) {
			b.AddEdge(v, u)
		}
	}
	return b.Build(bipartite.KeepParallelEdges)
}

// AlmostRegularConfig parameterizes the paper's "non-extremal example" of
// an almost-regular graph: most clients have the base degree, a few heavy
// clients have much larger degree, and a few designated light servers have
// only constant degree.
type AlmostRegularConfig struct {
	// N is the number of clients and of servers.
	N int
	// BaseDegree is the degree of ordinary clients (the paper uses
	// Θ(log² n)).
	BaseDegree int
	// HeavyClients is the number of clients whose degree is raised to
	// HeavyDegree (the paper's example uses Θ(√n) for the degree).
	HeavyClients int
	// HeavyDegree is the degree of the heavy clients; it must be at least
	// BaseDegree.
	HeavyDegree int
	// LightServers is the number of servers with only LightDegree
	// admissible clients. They are excluded from ordinary sampling, so the
	// remaining servers absorb the load.
	LightServers int
	// LightDegree is the degree of the light servers (the paper's example
	// allows o(log n), e.g. a constant).
	LightDegree int
}

// Validate reports whether the configuration is internally consistent.
func (c AlmostRegularConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("gen: AlmostRegular requires N > 0, got %d", c.N)
	}
	if c.BaseDegree <= 0 {
		return fmt.Errorf("gen: AlmostRegular requires BaseDegree > 0, got %d", c.BaseDegree)
	}
	if c.HeavyClients < 0 || c.HeavyClients > c.N {
		return fmt.Errorf("gen: AlmostRegular has %d heavy clients for N=%d", c.HeavyClients, c.N)
	}
	if c.HeavyClients > 0 && c.HeavyDegree < c.BaseDegree {
		return fmt.Errorf("gen: AlmostRegular HeavyDegree %d below BaseDegree %d", c.HeavyDegree, c.BaseDegree)
	}
	if c.LightServers < 0 || c.LightServers >= c.N {
		return fmt.Errorf("gen: AlmostRegular has %d light servers for N=%d", c.LightServers, c.N)
	}
	if c.LightServers > 0 && (c.LightDegree <= 0 || c.LightDegree > c.N) {
		return fmt.Errorf("gen: AlmostRegular LightDegree must be in [1, N=%d], got %d", c.N, c.LightDegree)
	}
	heavy := c.HeavyDegree
	if heavy < c.BaseDegree {
		heavy = c.BaseDegree
	}
	if heavy > c.N-c.LightServers {
		return fmt.Errorf("gen: AlmostRegular degree %d exceeds available servers %d", heavy, c.N-c.LightServers)
	}
	return nil
}

// DefaultAlmostRegularConfig returns the paper's example scaled to n:
// base degree ⌈log₂² n⌉, √n-degree heavy clients, and a handful of servers
// with constant degree.
func DefaultAlmostRegularConfig(n int) AlmostRegularConfig {
	logn := math.Log2(float64(n))
	base := int(math.Ceil(logn * logn))
	if base < 2 {
		base = 2
	}
	heavyDeg := int(math.Ceil(math.Sqrt(float64(n))))
	if heavyDeg < base {
		heavyDeg = base
	}
	heavyClients := int(math.Max(1, math.Floor(logn)))
	lightServers := int(math.Max(1, math.Floor(logn/2)))
	cfg := AlmostRegularConfig{
		N:            n,
		BaseDegree:   base,
		HeavyClients: heavyClients,
		HeavyDegree:  heavyDeg,
		LightServers: lightServers,
		LightDegree:  3,
	}
	if cfg.HeavyDegree > n-cfg.LightServers {
		cfg.HeavyDegree = n - cfg.LightServers
	}
	return cfg
}

// AlmostRegular builds the planted almost-regular graph described by cfg.
//
// Construction: the light servers are removed from the ordinary sampling
// pool. Every ordinary client samples BaseDegree servers without
// replacement from the pool; heavy clients sample HeavyDegree servers.
// Finally each light server is attached to LightDegree clients chosen
// uniformly at random (slightly raising those clients' degrees). The
// result has ∆min(C) = BaseDegree, a few clients of degree ≈ HeavyDegree,
// server degrees concentrated around the mean, and LightServers servers of
// degree exactly LightDegree — matching the paper's example while keeping
// ρ = ∆max(S)/∆min(C) bounded.
func AlmostRegular(cfg AlmostRegularConfig, src *rng.Source) (*bipartite.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	pool := n - cfg.LightServers // servers 0..pool-1 are ordinary, pool..n-1 are light
	b := bipartite.NewBuilder(n, n)
	for v := 0; v < n; v++ {
		deg := cfg.BaseDegree
		if v < cfg.HeavyClients {
			deg = cfg.HeavyDegree
		}
		if deg > pool {
			deg = pool
		}
		for _, u := range src.Sample(pool, deg) {
			b.AddEdge(v, u)
		}
	}
	for u := pool; u < n; u++ {
		for _, v := range src.Sample(n, cfg.LightDegree) {
			b.AddEdge(v, u)
		}
	}
	return b.Build(bipartite.KeepParallelEdges)
}
