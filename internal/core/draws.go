package core

import (
	"repro/internal/bipartite"
	"repro/internal/rng"
)

// drawKernel is the one place a client's ball destinations are drawn.
// The Runner's client phases (dense, sparse, routed or not) and the
// Driver's client phase all call draw; what differs between them is only
// where the destinations go afterwards (a tally, an SPA, route lanes).
//
// A draw reads neighbors from exactly one of three sources, picked from
// the topology's capabilities alone:
//
//   - point queries: a CSR graph (zero-copy row read) or a
//     bipartite.PointQueryable topology answers each ball with one O(1)
//     lookup;
//   - prefix rows: a bipartite.PrefixQueryable topology (the Erdős–Rényi
//     skip-sampler) regenerates only the row prefix up to the largest
//     drawn index;
//   - full rows: anything else regenerates the whole row.
//
// A late-round RowCache snapshot, when the Runner has one, sits in front
// of the prefix and full-row sources and is consulted exactly once per
// client visit. Every source makes the identical src.Intn(deg) calls in
// the identical order and row[i] is the same server on every source, so
// the choice of source never changes a result bit.
type drawKernel struct {
	topo   bipartite.Topology
	csr    *bipartite.Graph
	pq     bipartite.PointQueryable
	prefix bipartite.PrefixQueryable
	// cache is the Runner's frontier row snapshot while one is live, nil
	// otherwise (and always nil in the Driver).
	cache *bipartite.RowCache
	// bufs are the per-worker row scratch buffers of the regenerating
	// sources; nil on the CSR path.
	bufs [][]int32
}

// bind installs topo as the kernel's source, sizing the per-worker
// scratch buffers on first use.
func (k *drawKernel) bind(topo bipartite.Topology, workers int) {
	k.topo = topo
	k.csr, _ = topo.(*bipartite.Graph)
	k.prefix = nil
	k.cache = nil
	if k.csr == nil {
		k.prefix, _ = topo.(bipartite.PrefixQueryable)
		if k.bufs == nil {
			maxDeg := topo.MaxClientDegree()
			k.bufs = make([][]int32, workers)
			for w := range k.bufs {
				k.bufs[w] = make([]int32, 0, maxDeg)
			}
		}
	}
	k.refresh()
}

// refresh re-derives the point-query view. Mutable topologies can flip
// queryability (churn failures filter rows at read time, recoveries make
// them queryable again), so callers refresh whenever the topology
// version may have moved.
func (k *drawKernel) refresh() {
	k.pq = nil
	if k.csr == nil {
		k.pq = bipartite.PointQuerier(k.topo)
	}
}

// regenerates reports whether draws regenerate rows (prefix or whole),
// the case the late-round row cache exists for.
func (k *drawKernel) regenerates() bool { return k.csr == nil && k.pq == nil }

// draw fills out (one slot per alive ball of client v) with the balls'
// destinations, drawn from v's stream src.
func (k *drawKernel) draw(worker, v int, src *rng.Stream, out []int32) {
	var row []int32
	switch {
	case k.csr != nil:
		row = k.csr.ClientNeighbors(v)
	case k.pq != nil:
		deg := k.pq.ClientDegree(v)
		for i := range out {
			out[i] = k.pq.NeighborAt(v, src.Intn(deg))
		}
		return
	default:
		row = k.cachedRow(v)
		if row == nil && k.prefix != nil {
			// Draw every index first (the same Intn sequence as the row
			// path), parking them in out, then regenerate only the prefix
			// the largest one needs.
			deg := k.prefix.ClientDegree(v)
			hi := int32(0)
			for i := range out {
				j := int32(src.Intn(deg))
				out[i] = j
				hi = max(hi, j)
			}
			row = k.prefix.AppendClientNeighborsPrefix(v, int(hi)+1, k.bufs[worker][:0])
			k.bufs[worker] = row
			for i, j := range out {
				out[i] = row[j]
			}
			return
		}
		if row == nil {
			row = k.regenerate(worker, v)
		}
	}
	for i := range out {
		out[i] = row[src.Intn(len(row))]
	}
}

// row returns client v's whole neighborhood for worker: zero-copy from a
// CSR graph, from the row cache when v is pinned there, and regenerated
// into the worker's scratch buffer otherwise (valid until the worker's
// next call). It serves the whole-row consumers: the starvation check
// and the neighborhood statistics.
func (k *drawKernel) row(worker, v int) []int32 {
	if k.csr != nil {
		return k.csr.ClientNeighbors(v)
	}
	if row := k.cachedRow(v); row != nil {
		return row
	}
	return k.regenerate(worker, v)
}

// cachedRow returns v's row from the live row cache, or nil on a miss or
// when no snapshot is live. Rows are never empty (isolated clients fail
// validation), so nil is unambiguous.
func (k *drawKernel) cachedRow(v int) []int32 {
	if k.cache == nil {
		return nil
	}
	row, _ := k.cache.CachedRow(v)
	return row
}

// regenerate rebuilds v's whole row into worker's scratch buffer.
func (k *drawKernel) regenerate(worker, v int) []int32 {
	k.bufs[worker] = k.topo.AppendClientNeighbors(v, k.bufs[worker][:0])
	return k.bufs[worker]
}
