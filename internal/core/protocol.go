package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// EngineMode selects how the round loop iterates over entities.
//
// The paper proves (Lemma 4 / Theorem 1) that the number of alive balls
// decays geometrically, so after the first few rounds almost every client
// is finished and almost every server receives nothing. The sparse engine
// exploits exactly that: it walks a compacted frontier of still-active
// clients and an epoch-stamped list of servers actually touched this
// round, making late rounds O(active) instead of O(n + m·workers).
// Both engines compute the identical random process — results are
// bit-for-bit equal — so the mode is a pure performance knob, exposed
// mainly for benchmarks and the equivalence tests.
type EngineMode int

const (
	// EngineAuto (the default) starts on the dense streaming path and
	// switches to the sparse frontier path once the active-client fraction
	// drops below 1/divisor (Options.SparseSwitchDivisor, default 4).
	// Active clients never come back (alive counts are non-increasing), so
	// the switch happens at most once per run.
	EngineAuto EngineMode = iota
	// EngineDense forces the dense path for the whole run.
	EngineDense
	// EngineSparse forces the frontier path from round one.
	EngineSparse
)

// defaultSparseSwitchDivisor is the density threshold EngineAuto uses
// when Options.SparseSwitchDivisor is zero: the run switches to the
// sparse path when active clients ≤ n/divisor. Below that point the
// dense pass wastes most of its bandwidth streaming over finished
// entities; above it, the contiguous dense layout wins.
const defaultSparseSwitchDivisor = 4

// rowCacheEdgeBudget bounds the late-round frontier row cache for
// implicit topologies: caching activates once the frontier's worst-case
// row footprint (|frontier| × max degree) fits the budget, which keeps
// cached bytes at ≤ 4·max(n, 2¹⁶) — a few percent of what the
// materialized CSR twin would hold, preserving the implicit layer's
// memory guarantee (TestShardedRowCacheMemoryGuard pins it).
func rowCacheEdgeBudget(n int) int {
	const floor = 1 << 16
	if n < floor {
		return floor
	}
	return n
}

// Run executes one full protocol run of the selected variant on topo and
// returns its Result. The run is deterministic in (topo, variant, p.Seed)
// and independent of p.Workers, Options.Engine, and — for topologies that
// describe the same edge multiset in the same per-client order, such as an
// implicit topology and its materialized CSR twin — of the topology
// representation.
func Run(topo bipartite.Topology, variant Variant, p Params, opts Options) (*Result, error) {
	r, err := NewRunner(topo, variant, p, opts)
	if err != nil {
		return nil, err
	}
	return r.Run(), nil
}

// Runner holds the mutable state of a protocol execution. It exists as a
// separate type so that benchmarks and the experiment harness can reuse
// the graph and reset cheaply between trials; most callers can simply use
// Run.
type Runner struct {
	topo    bipartite.Topology
	variant Variant
	params  Params
	opts    Options

	// draws is the per-client draw kernel (see drawKernel): it reads
	// neighbors zero-copy from a CSR graph, point-wise or prefix-wise
	// from an implicit topology that supports it, and otherwise from
	// regenerated rows — or from rowCache once the late-round frontier
	// has shrunk enough to pin the survivors' rows (see beginRound).
	// maxDeg is the topology's largest client degree (implicit
	// topologies only), which sizes the cache budget.
	draws  drawKernel
	maxDeg int

	// rowCache holds the frontier row cache for row-regenerating
	// topologies. The current run has snapshotted its frontier into it
	// (at most once per run — the frontier only shrinks) iff the draw
	// kernel holds it (rowCacheBuilt).
	rowCache *bipartite.RowCache

	// versioned is non-nil when topo is mutable (bipartite.Versioned);
	// topoVersion is the version the Runner's caches were last synced to.
	// PatchTopology re-binds after an in-place mutation; beginRound
	// additionally re-checks the version so a mutation that skipped
	// PatchTopology can never serve stale cached rows or route lanes.
	versioned   bipartite.Versioned
	topoVersion uint64

	pool     *engine.Pool
	capacity int32
	d        int

	// router is non-nil when the rounds run the sharded route/apply
	// pipeline (effective shard count > 1): phase A buckets ball
	// destinations into per-(worker, shard) lanes and phase B folds each
	// shard into the stamped tally's merged view with shard-local writes,
	// replacing the per-worker dense tally and its O(m × workers)
	// merge/reset passes. The tally is in stamped mode for the Runner's
	// whole lifetime then (two-level SPA: per-shard lanes below, epoch-
	// guarded merged counts above), so sparse rounds route through the
	// same lanes instead of allocating per-worker sparse buffers and the
	// round-end reset is an O(1) epoch advance.
	router *engine.Router

	// steal selects the work-stealing chunk scheduler for the round
	// phases (Options.Steal, resolved).
	steal bool

	// switchDivisor is EngineAuto's density threshold
	// (Options.SparseSwitchDivisor, defaulted or autotuned).
	switchDivisor int

	// Per-client state.
	alive   []int32      // unassigned balls of client v
	choices []int32      // this round's chosen servers, d slots per client
	streams []rng.Stream // private random stream of client v
	// cumNbrReceived is Σ_{i≤t} r_i(N(v)) per client; allocated only when
	// neighborhood tracking is on.
	cumNbrReceived []int64
	// assignments[v] collects the servers that accepted v's balls;
	// allocated only when Options.TrackAssignments is set.
	assignments [][]int32

	// Per-server state.
	tally         *engine.Tally // requests received this round
	load          []int32       // accepted balls
	receivedTotal []int32       // cumulative received since the start
	burned        []bool        // SAER: burned; RAES: diagnostic "received > capacity"
	// acceptedEpoch[u] == roundEpoch ⇔ server u accepted this round's
	// requests. The epoch encoding means no per-round clearing pass over
	// the m servers is ever needed, in either engine mode; a single byte
	// per server keeps the randomly-accessed working set small (the array
	// is cleared on the uint8 wraparound, once every 255 rounds).
	acceptedEpoch []uint8
	roundEpoch    uint8

	// Sparse-engine state. frontier is the sorted list of clients that
	// still hold alive balls; it is rebuilt in place every sparse round
	// from the per-chunk survivor buffers (frontBuf), whose concatenation
	// in chunk index order preserves the sorted order for every worker
	// count and steal schedule: chunks are contiguous ascending index
	// ranges whose boundaries are a pure function of (range, workers),
	// regardless of which worker executed them. frontChunks records how
	// many chunks the last collection used (== the worker count under the
	// static scheduler, where chunk and worker coincide). Dense update
	// phases also collect survivors into frontBuf (frontierCollected), so
	// the auto-mode switch needs no extra scan.
	sparse            bool
	frontier          []int32
	frontBuf          [][]int32
	frontChunks       int
	frontierCollected bool
	activeClients     int

	// initialized distinguishes the first resetState call (on freshly
	// zeroed allocations) from later Reseed calls that must undo a
	// previous run's state.
	initialized bool

	// tel is the run's telemetry bundle (nil when Options.Telemetry is
	// unset); see runTel for the disabled-path contract.
	tel *runTel

	// Per-worker partial accumulators, reused every round.
	partialSent     []int64
	partialAccepted []int64
	partialAlive    []int64
	partialBurned   []int64
	partialSat      []int64
}

// NewRunner validates the inputs and allocates the run state.
func NewRunner(topo bipartite.Topology, variant Variant, p Params, opts Options) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	if variant != SAER && variant != RAES {
		return nil, fmt.Errorf("core: unknown protocol variant %d", int(variant))
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := topo.NumClients()
	m := topo.NumServers()
	if opts.InitialLoads != nil && len(opts.InitialLoads) != m {
		return nil, fmt.Errorf("core: InitialLoads has %d entries for %d servers", len(opts.InitialLoads), m)
	}
	if opts.RequestCounts != nil {
		if len(opts.RequestCounts) != n {
			return nil, fmt.Errorf("core: RequestCounts has %d entries for %d clients", len(opts.RequestCounts), n)
		}
		for v, c := range opts.RequestCounts {
			if c < 0 || c > p.D {
				return nil, fmt.Errorf("core: RequestCounts[%d] = %d outside [0, D=%d]", v, c, p.D)
			}
		}
	}
	pool := engine.NewPool(p.Workers)
	r := &Runner{
		topo:     topo,
		variant:  variant,
		params:   p,
		opts:     opts,
		pool:     pool,
		capacity: int32(p.Capacity()),
		d:        p.D,

		alive:   make([]int32, n),
		choices: make([]int32, n*p.D),
		streams: make([]rng.Stream, n),

		tally:         engine.NewTally(pool, m),
		load:          make([]int32, m),
		receivedTotal: make([]int32, m),
		burned:        make([]bool, m),
		acceptedEpoch: make([]uint8, m),

		frontBuf: make([][]int32, pool.Workers()),

		partialSent:     make([]int64, pool.Workers()),
		partialAccepted: make([]int64, pool.Workers()),
		partialAlive:    make([]int64, pool.Workers()),
		partialBurned:   make([]int64, pool.Workers()),
		partialSat:      make([]int64, pool.Workers()),
	}
	if opts.TrackNeighborhoods {
		r.cumNbrReceived = make([]int64, n)
	}
	if opts.TrackAssignments {
		r.assignments = make([][]int32, n)
	}
	r.tel = newRunTel(opts.Telemetry)
	instrumentPool(opts.Telemetry, pool)
	knobs := resolveKnobs(opts, n, topo.MaxClientDegree(), m, pool.Workers(), rowRegenerating(topo))
	r.switchDivisor = knobs.SparseSwitchDivisor
	r.steal = knobs.Steal
	if knobs.Shards > 1 {
		if rt := engine.NewRouter(pool.Workers(), knobs.Shards, m); rt.Shards() > 1 {
			r.router = rt
		}
	}
	if r.router != nil {
		// The routed pipeline keeps the tally stamped for the Runner's
		// whole lifetime: folds detect first touches by epoch stamp, so
		// no zeroing pass ever streams the counts array.
		r.tally.BeginStamped()
	}
	r.bindTopology(topo)
	r.resetState()
	return r, nil
}

// bindTopology installs topo as the Runner's adjacency source, selecting
// the zero-copy CSR fast path when possible and sizing the per-worker
// neighborhood scratch buffers otherwise.
func (r *Runner) bindTopology(topo bipartite.Topology) {
	r.topo = topo
	r.draws.bind(topo, r.pool.Workers())
	if r.draws.csr == nil {
		r.maxDeg = topo.MaxClientDegree()
	}
	// A swapped topology regenerates different rows, so any cached
	// frontier rows are stale.
	r.dropRowCache()
	r.versioned, _ = topo.(bipartite.Versioned)
	if r.versioned != nil {
		r.topoVersion = r.versioned.TopologyVersion()
		if r.router != nil {
			r.router.SyncTopologyVersion(r.topoVersion)
		}
	}
}

// SwapTopology replaces the Runner's topology with one of identical
// dimensions, keeping every allocated buffer. It is the cheap way to step
// a dynamic scenario whose admissibility graph is re-randomized between
// batches (E12): allocate one Runner for the batch shape, then
// SwapTopology + Reseed per batch. The caller must Reseed (or at least
// not expect a consistent mid-run state) before the next Run.
func (r *Runner) SwapTopology(topo bipartite.Topology) error {
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	if topo.NumClients() != r.topo.NumClients() || topo.NumServers() != r.topo.NumServers() {
		return fmt.Errorf("core: SwapTopology dimension mismatch: %dx%d -> %dx%d",
			r.topo.NumClients(), r.topo.NumServers(), topo.NumClients(), topo.NumServers())
	}
	r.bindTopology(topo)
	return nil
}

// PatchTopology re-binds the Runner to its current topology after an
// in-place mutation (a churn.Topology whose edges were rewired, or whose
// clients/servers arrived, departed, failed or recovered between
// epochs). It is SwapTopology's counterpart for topologies that mutate
// instead of being replaced: the graph is revalidated, the degree bound
// refreshed, and the version-keyed caches (frontier row cache, route
// lanes) invalidated when the topology version moved. Dimensions cannot
// change, and as with SwapTopology the caller must Reseed before the
// next Run.
func (r *Runner) PatchTopology() error {
	if err := r.topo.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	r.bindTopology(r.topo)
	return nil
}

// rowCacheBuilt reports whether the current run has a live frontier row
// snapshot.
func (r *Runner) rowCacheBuilt() bool { return r.draws.cache != nil }

// dropRowCache discards the frontier row snapshot, if any.
func (r *Runner) dropRowCache() {
	if r.rowCache != nil {
		r.rowCache.Invalidate()
	}
	r.draws.cache = nil
}

// parallel runs fn over [0, n) on the scheduler the run is configured
// for: work-stealing chunk deques when stealing is on, the static
// one-shard-per-worker split otherwise. Under the static split the chunk
// index equals the worker index, so chunk-indexed outputs (survivor
// buffers) work identically on both schedulers; worker-indexed scratch
// (tally locals, partial sums) is always owned by a single goroutine.
// Callers accumulate partials with +=, since one worker may execute many
// chunks.
func (r *Runner) parallel(n int, fn func(worker, chunk, lo, hi int)) {
	if r.steal {
		r.pool.StealRange(n, fn)
		return
	}
	r.pool.ParallelRange(n, func(worker, lo, hi int) { fn(worker, worker, lo, hi) })
}

// parallelShards is parallel for ranges of heavyweight items (router
// shards): chunk granularity 1, no chunk-indexed outputs.
func (r *Runner) parallelShards(n int, fn func(worker, lo, hi int)) {
	if r.steal {
		r.pool.StealRangeGrain(n, 1, func(worker, _, lo, hi int) { fn(worker, lo, hi) })
		return
	}
	r.pool.ParallelRange(n, fn)
}

// chunkCount returns how many chunk-indexed output lanes parallel(n, ·)
// can produce, for sizing frontBuf.
func (r *Runner) chunkCount(n int) int {
	if r.steal {
		return r.pool.NumChunks(n)
	}
	return r.pool.Workers()
}

// ensureFrontBuf grows the chunk-indexed survivor buffers to nc lanes.
func (r *Runner) ensureFrontBuf(nc int) {
	for len(r.frontBuf) < nc {
		r.frontBuf = append(r.frontBuf, nil)
	}
	for c := 0; c < nc; c++ {
		r.frontBuf[c] = r.frontBuf[c][:0]
	}
}

// resetState reinitializes all mutable per-run state, allowing the Runner
// to be reused for another trial with the same parameters. It must leave
// the Runner in exactly the state NewRunner produces — including the
// tally, which a starved-client early exit can leave dirty. On the very
// first call (from NewRunner) the per-server buffers are freshly
// allocated and already zero, so their clearing passes are skipped.
func (r *Runner) resetState() {
	dirty := r.initialized
	r.initialized = true
	active := 0
	for i := range r.alive {
		if r.opts.RequestCounts != nil {
			r.alive[i] = int32(r.opts.RequestCounts[i])
		} else {
			r.alive[i] = int32(r.d)
		}
		if r.alive[i] > 0 {
			active++
		}
	}
	r.activeClients = active
	r.sparse = false
	r.frontier = r.frontier[:0]
	r.frontierCollected = false
	if dirty {
		for i := range r.assignments {
			r.assignments[i] = r.assignments[i][:0]
		}
		for i := range r.load {
			r.load[i] = 0
			r.receivedTotal[i] = 0
			r.burned[i] = false
		}
		for i := range r.cumNbrReceived {
			r.cumNbrReceived[i] = 0
		}
		// The tally is reused across trials; a run that exited through the
		// starved-client break leaves the current round's counts in it, so
		// it must be cleared here rather than trusting the round loop's
		// resets (for a stamped routed tally this is an O(1) epoch
		// advance). The same exit leaves the router's lanes and touched
		// lists populated; they are discarded wholesale.
		r.tally.FullReset(r.pool)
		if r.router != nil {
			r.router.Discard()
		}
		r.dropRowCache()
	}
	if r.opts.InitialLoads != nil {
		for i, l := range r.opts.InitialLoads {
			if l < 0 {
				l = 0
			}
			r.load[i] = int32(l)
			r.receivedTotal[i] = int32(l)
			if int32(l) >= r.capacity {
				// A server already at (or beyond) capacity can never accept
				// another ball: under SAER it is burned from the start and
				// under RAES the acceptance test always fails; marking it
				// burned keeps the diagnostic series consistent.
				r.burned[i] = true
			}
		}
	}
	rng.ReseedStreamSlice(r.streams, r.params.Seed)
}

// Reseed prepares the Runner for another independent trial with a new
// protocol seed, resetting all protocol state.
func (r *Runner) Reseed(seed uint64) {
	r.params.Seed = seed
	r.resetState()
}

// beginRound advances the accept-epoch and, in auto mode, switches to the
// sparse engine once the active-client density has dropped below the
// threshold. The switch is monotone: alive counts never increase, so a
// run crosses the threshold at most once.
func (r *Runner) beginRound() {
	// Mutable topologies: a version moved since the last bind means rows
	// changed under the Runner (a mutation that skipped PatchTopology);
	// drop the version-keyed caches so no stale row or route lane is ever
	// served. With the PatchTopology contract honored this never fires.
	// The row cache carries its own version stamp (SetVersion below), so
	// its staleness check survives even if the Runner's bookkeeping and
	// the cache ever disagree.
	if r.versioned != nil {
		if v := r.versioned.TopologyVersion(); v != r.topoVersion {
			r.topoVersion = v
			if r.router != nil {
				r.router.SyncTopologyVersion(v)
			}
			// Mutations can flip point-queryability (churn failures make
			// rows read-time filtered, recoveries make them queryable
			// again), so the point-query view is version-keyed too.
			r.draws.refresh()
		}
		if r.rowCacheBuilt() && !r.rowCache.ValidFor(r.topoVersion) {
			r.dropRowCache()
		}
	}
	r.roundEpoch++
	if r.roundEpoch == 0 {
		// uint8 wraparound: every 255 rounds the stamps are cleared so a
		// stale epoch cannot collide with a recycled value. The clearing
		// pass is a single small memclr amortized over 255 rounds.
		clear(r.acceptedEpoch)
		r.roundEpoch = 1
	}
	if !r.sparse && r.opts.Engine != EngineDense {
		if r.opts.Engine == EngineSparse || r.activeClients*r.switchDivisor <= r.topo.NumClients() {
			r.buildFrontier()
			r.sparse = true
			// A routed runner keeps counting through its stamped lanes —
			// sparse rounds only change which clients phase A walks — so
			// the per-worker sparse buffers (O(m × workers) memory) are
			// never allocated. Unrouted runners switch the tally into
			// sparse accumulation: the previous round left the local
			// buffers clean — via the dense Reset, via resetState, or by
			// never writing them at all — which is BeginSparse's
			// precondition.
			if r.router == nil {
				r.tally.BeginSparse()
			}
		}
	}
	// Late-round frontier row cache: on implicit topologies whose draws
	// regenerate rows (whole or prefix), once the sparse frontier's
	// worst-case row footprint fits the budget, snapshot the survivors'
	// regenerated rows so the remaining rounds read them instead of
	// resampling. One snapshot per run suffices: the frontier only
	// shrinks, so every later survivor is already cached. Point-queryable
	// topologies skip the snapshot — their draws never touch rows, so
	// pinning them would be pure cost (the occasional whole-row consumers
	// regenerate).
	if r.sparse && r.draws.regenerates() && !r.rowCacheBuilt() &&
		len(r.frontier)*r.maxDeg <= rowCacheEdgeBudget(r.topo.NumClients()) {
		if r.rowCache == nil {
			r.rowCache = bipartite.NewRowCache(r.topo.NumClients())
			if r.tel != nil {
				r.rowCache.SetMetrics(r.tel.rowCache)
			}
		}
		r.rowCache.Cache(r.topo, r.frontier)
		r.rowCache.SetVersion(r.topoVersion)
		r.draws.cache = r.rowCache
	}
}

// buildFrontier compacts the indices of clients with alive balls into
// r.frontier, sorted ascending. When the previous dense update phase has
// already collected the survivors into the per-chunk buffers, they are
// just concatenated; otherwise (first round of an EngineSparse run, or a
// sparse start due to mostly-zero RequestCounts) the clients are scanned.
// In both cases chunks cover contiguous ascending index ranges whose
// boundaries depend only on (n, workers), so the concatenation in chunk
// index order yields the same sorted list for every worker count and
// every steal schedule.
func (r *Runner) buildFrontier() {
	if !r.frontierCollected {
		n := r.topo.NumClients()
		nc := r.chunkCount(n)
		r.ensureFrontBuf(nc)
		r.parallel(n, func(_, chunk, lo, hi int) {
			buf := r.frontBuf[chunk]
			for v := lo; v < hi; v++ {
				if r.alive[v] > 0 {
					buf = append(buf, int32(v))
				}
			}
			r.frontBuf[chunk] = buf
		})
		r.frontChunks = nc
	}
	r.frontier = r.frontier[:0]
	for c := 0; c < r.frontChunks; c++ {
		r.frontier = append(r.frontier, r.frontBuf[c]...)
	}
	r.activeClients = len(r.frontier)
}

// Run executes the protocol until completion or the round cap and returns
// the Result. Run may be called again after Reseed.
func (r *Runner) Run() *Result {
	n := r.topo.NumClients()
	m := r.topo.NumServers()
	maxRounds := r.params.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds(n)
	}
	trackRounds := r.opts.TrackRounds || r.opts.TrackNeighborhoods

	res := &Result{
		Variant:    r.variant,
		Params:     r.params,
		NumClients: n,
		NumServers: m,
	}
	if trackRounds {
		res.PerRound = make([]RoundStats, 0, CompletionBound(n)+4)
	}

	aliveTotal := int64(0)
	for _, a := range r.alive {
		aliveTotal += int64(a)
	}
	res.TotalBalls = aliveTotal
	burnedTotal := 0
	round := 0
	for aliveTotal > 0 && round < maxRounds {
		round++
		r.beginRound()
		sp := telemetry.StartSpan(r.tel.drawHist())
		sent := r.phaseClients()
		sp.End()
		sp = telemetry.StartSpan(r.tel.foldHist())
		var touched []int32
		switch {
		case r.router != nil:
			// Sharded rounds (dense and sparse alike) have no merge step:
			// phase B folds each shard's route lanes into the stamped
			// merged view itself (timed under the decide span).
		case r.sparse:
			touched = r.tally.SparseMerge()
		default:
			r.tally.Merge(r.pool)
		}
		sp.End()
		sp = telemetry.StartSpan(r.tel.decideHist())
		newlyBurned, saturated := r.phaseServers(touched)
		sp.End()
		sp = telemetry.StartSpan(r.tel.updateHist())
		accepted, stillAlive := r.phaseUpdateClients()
		sp.End()
		r.tel.countRound(sent, accepted)

		burnedTotal += newlyBurned
		res.TotalRequests += sent
		res.SaturationEvents += int64(saturated)

		if trackRounds {
			stats := RoundStats{
				Round:              round,
				AliveBalls:         int(aliveTotal),
				RequestsSent:       int(sent),
				RequestsAccepted:   int(accepted),
				NewlyBurned:        newlyBurned,
				BurnedTotal:        burnedTotal,
				SaturatedThisRound: saturated,
			}
			if r.opts.TrackNeighborhoods {
				stats.MaxNeighborhoodBurnedFrac, stats.MaxNeighborhoodReceived, stats.MaxKt =
					r.neighborhoodStats()
			}
			res.PerRound = append(res.PerRound, stats)
		}

		aliveTotal = stillAlive
		// If no ball was accepted this round and no server state changed,
		// check whether some client's whole neighborhood is burned: such a
		// client can never place its remaining balls and the run is
		// hopeless (this can only happen when c is far below the paper's
		// threshold).
		if accepted == 0 && newlyBurned == 0 && aliveTotal > 0 && r.variant == SAER {
			if r.hasStarvedClient() {
				break
			}
		}
		switch {
		case r.router != nil:
			// O(1): the stamped counts are invalidated by advancing the
			// epoch — no pass over the tally, however large m is.
			r.tally.StampedReset()
		case r.sparse:
			r.tally.SparseReset()
		default:
			r.tally.Reset(r.pool)
		}
	}

	res.Rounds = round
	res.Work = 2 * res.TotalRequests
	res.UnassignedBalls = int(aliveTotal)
	res.Completed = aliveTotal == 0
	res.BurnedServers = burnedTotal
	r.fillLoadStats(res)
	if r.opts.TrackAssignments {
		res.Assignments = make([][]int32, len(r.assignments))
		for v, a := range r.assignments {
			res.Assignments[v] = append([]int32(nil), a...)
		}
	}
	return res
}

// clientStep draws this round's destinations for client v's alive balls
// and counts them into the worker's tally: the dense local counts when
// denseLocal is set, the sparse SPA otherwise. It is the shared inner
// loop of the unrouted client phases; the only difference between them
// is how v is enumerated.
func (r *Runner) clientStep(worker, v int, denseLocal []int32) int64 {
	out := r.drawClient(worker, v)
	if denseLocal != nil {
		for _, u := range out {
			denseLocal[u]++
		}
	} else {
		for _, u := range out {
			r.tally.SparseAdd(worker, u)
		}
	}
	return int64(len(out))
}

// clientStepRoute is clientStep's counterpart for the sharded pipeline:
// destinations are drawn identically but, instead of bumping a tally,
// routed to the owning server shard's lane, to be counted by the shard's
// phase-B owner.
func (r *Runner) clientStepRoute(worker, v int, lanes [][]int32, shift uint) int64 {
	out := r.drawClient(worker, v)
	routeToLanes(lanes, shift, out)
	return int64(len(out))
}

// routeToLanes appends each destination to the lane of the server shard
// that owns it (shard = server >> shift).
func routeToLanes(lanes [][]int32, shift uint, dests []int32) {
	for _, u := range dests {
		s := int(u) >> shift
		lanes[s] = append(lanes[s], u)
	}
}

// drawClient draws client v's alive balls through the draw kernel into
// v's choices slots and returns them.
func (r *Runner) drawClient(worker, v int) []int32 {
	base := v * r.d
	out := r.choices[base : base+int(r.alive[v])]
	r.draws.draw(worker, v, &r.streams[v], out)
	return out
}

// phaseClients is phase 1: every client with alive balls draws a uniform
// destination in its neighborhood for each of them. Returns the number of
// requests submitted. The dense paths scan all n clients, the sparse
// paths walk only the active frontier; routed runs bucket each ball's
// destination into the owning server shard's lane either way, while
// unrouted runs bump the worker's tally (dense local or sparse SPA).
// Every path draws from the per-client streams in the same per-client
// order, so the choices are schedule-independent; the per-worker sent
// partials are order-independent sums.
func (r *Runner) phaseClients() int64 {
	for w := range r.partialSent {
		r.partialSent[w] = 0
	}
	switch {
	case r.router != nil && r.sparse:
		r.router.ResetLanes()
		shift := r.router.Shift()
		r.parallel(len(r.frontier), func(worker, _, lo, hi int) {
			lanes := r.router.Lanes(worker)
			var sent int64
			for idx := lo; idx < hi; idx++ {
				sent += r.clientStepRoute(worker, int(r.frontier[idx]), lanes, shift)
			}
			r.partialSent[worker] += sent
		})
	case r.sparse:
		r.parallel(len(r.frontier), func(worker, _, lo, hi int) {
			var sent int64
			for idx := lo; idx < hi; idx++ {
				sent += r.clientStep(worker, int(r.frontier[idx]), nil)
			}
			r.partialSent[worker] += sent
		})
	case r.router != nil:
		r.router.ResetLanes()
		shift := r.router.Shift()
		r.parallel(r.topo.NumClients(), func(worker, _, lo, hi int) {
			lanes := r.router.Lanes(worker)
			var sent int64
			for v := lo; v < hi; v++ {
				if r.alive[v] == 0 {
					continue
				}
				sent += r.clientStepRoute(worker, v, lanes, shift)
			}
			r.partialSent[worker] += sent
		})
	default:
		r.parallel(r.topo.NumClients(), func(worker, _, lo, hi int) {
			local := r.tally.Local(worker)
			var sent int64
			for v := lo; v < hi; v++ {
				if r.alive[v] == 0 {
					continue
				}
				sent += r.clientStep(worker, v, local)
			}
			r.partialSent[worker] += sent
		})
	}
	var total int64
	for _, v := range r.partialSent {
		total += v
	}
	return total
}

// serverStep applies the variant's threshold rule to server u for this
// round's recv > 0 requests, updating burned/load/accept state. It
// reports whether the server newly burned and whether it saturated
// (rejected the round while not burned).
func (r *Runner) serverStep(u, recv int32) (newlyBurned, saturated bool) {
	r.receivedTotal[u] += recv
	switch r.variant {
	case SAER:
		if r.burned[u] {
			// A burned server rejects everything; not a new saturation
			// event.
			return false, false
		}
		if r.receivedTotal[u] > r.capacity {
			r.burned[u] = true
			return true, true
		}
		r.load[u] += recv
		r.acceptedEpoch[u] = r.roundEpoch
		return false, false
	default: // RAES
		if !r.burned[u] && r.receivedTotal[u] > r.capacity {
			// Diagnostic only: the server would be burned under SAER's
			// stronger rule (used by the Corollary 2 comparison); RAES
			// itself keeps going.
			r.burned[u] = true
			newlyBurned = true
		}
		if r.load[u]+recv > r.capacity {
			return newlyBurned, true
		}
		r.load[u] += recv
		r.acceptedEpoch[u] = r.roundEpoch
		return newlyBurned, false
	}
}

// phaseServers is phase 2: every server that received requests applies the
// variant's threshold rule. Returns how many servers became burned and how
// many rejected the round while not burned. The unsharded dense path scans
// all m servers; the routed path (dense and sparse rounds alike) has each
// shard owner fold its route lanes into the stamped merged counts (writes
// confined to the shard's contiguous server window) and step exactly the
// servers the fold touched, in the ascending order the fold emits them —
// the same ordered fold that builds the Driver's bank batch; the unrouted
// sparse path visits only the touched-server list produced by the sparse
// tally merge. Iteration order differs across those paths and across
// worker/shard counts and steal schedules, but it never leaks into
// results: each server's update depends only on its own state, and the
// per-worker burned/saturated tallies are order-independent sums.
func (r *Runner) phaseServers(touched []int32) (newlyBurned, saturated int) {
	for w := range r.partialBurned {
		r.partialBurned[w] = 0
		r.partialSat[w] = 0
	}
	switch {
	case r.router != nil:
		counts := r.tally.Merged()
		r.parallelShards(r.router.Shards(), func(worker, lo, hi int) {
			var nb, sat int64
			for s := lo; s < hi; s++ {
				for _, u := range r.router.FoldShard(s, r.tally) {
					b, sflag := r.serverStep(u, counts[u])
					if b {
						nb++
					}
					if sflag {
						sat++
					}
				}
			}
			r.partialBurned[worker] += nb
			r.partialSat[worker] += sat
		})
	case r.sparse:
		r.parallel(len(touched), func(worker, _, lo, hi int) {
			var nb, sat int64
			for idx := lo; idx < hi; idx++ {
				u := touched[idx]
				b, s := r.serverStep(u, r.tally.ReceivedAt(u))
				if b {
					nb++
				}
				if s {
					sat++
				}
			}
			r.partialBurned[worker] += nb
			r.partialSat[worker] += sat
		})
	default:
		received := r.tally.Merged()
		r.parallel(r.topo.NumServers(), func(worker, _, lo, hi int) {
			var nb, sat int64
			for u := lo; u < hi; u++ {
				recv := received[u]
				if recv == 0 {
					continue
				}
				b, s := r.serverStep(int32(u), recv)
				if b {
					nb++
				}
				if s {
					sat++
				}
			}
			r.partialBurned[worker] += nb
			r.partialSat[worker] += sat
		})
	}
	for w := range r.partialBurned {
		newlyBurned += int(r.partialBurned[w])
		saturated += int(r.partialSat[w])
	}
	return newlyBurned, saturated
}

// updateClientStep counts which of client v's requests were accepted this
// round and updates its alive-ball count, returning (accepted, remaining).
func (r *Runner) updateClientStep(v int) (got, rem int32) {
	a := r.alive[v]
	base := v * r.d
	for i := int32(0); i < a; i++ {
		u := r.choices[base+int(i)]
		if r.acceptedEpoch[u] == r.roundEpoch {
			got++
			if r.assignments != nil {
				r.assignments[v] = append(r.assignments[v], u)
			}
		}
	}
	rem = a - got
	r.alive[v] = rem
	return got, rem
}

// phaseUpdateClients lets every client count which of its requests were
// accepted and update its alive-ball count. Returns the number of accepted
// requests and the total number of balls still alive. The sparse path
// additionally rebuilds the frontier in place from the per-chunk survivor
// buffers (concatenated in chunk index order, which preserves sortedness
// for every steal schedule); the dense path counts the remaining active
// clients so that beginRound can decide when to switch.
func (r *Runner) phaseUpdateClients() (accepted, alive int64) {
	for w := range r.partialAccepted {
		r.partialAccepted[w] = 0
		r.partialAlive[w] = 0
	}
	if r.sparse {
		nc := r.chunkCount(len(r.frontier))
		r.ensureFrontBuf(nc)
		r.parallel(len(r.frontier), func(worker, chunk, lo, hi int) {
			buf := r.frontBuf[chunk]
			var acc, still int64
			for idx := lo; idx < hi; idx++ {
				v := r.frontier[idx]
				got, rem := r.updateClientStep(int(v))
				if rem > 0 {
					buf = append(buf, v)
				}
				acc += int64(got)
				still += int64(rem)
			}
			r.frontBuf[chunk] = buf
			r.partialAccepted[worker] += acc
			r.partialAlive[worker] += still
		})
		r.frontier = r.frontier[:0]
		for c := 0; c < nc; c++ {
			r.frontier = append(r.frontier, r.frontBuf[c]...)
		}
		r.activeClients = len(r.frontier)
	} else {
		// The survivors double as next round's frontier if beginRound
		// decides to switch to the sparse engine; a forced-dense run can
		// never switch, so it skips the collection entirely.
		collect := r.opts.Engine != EngineDense
		nc := 0
		if collect {
			nc = r.chunkCount(r.topo.NumClients())
			r.ensureFrontBuf(nc)
		}
		r.parallel(r.topo.NumClients(), func(worker, chunk, lo, hi int) {
			var buf []int32
			if collect {
				buf = r.frontBuf[chunk]
			}
			var acc, still int64
			for v := lo; v < hi; v++ {
				if r.alive[v] == 0 {
					continue
				}
				got, rem := r.updateClientStep(v)
				if rem > 0 && collect {
					buf = append(buf, int32(v))
				}
				acc += int64(got)
				still += int64(rem)
			}
			if collect {
				r.frontBuf[chunk] = buf
			}
			r.partialAccepted[worker] += acc
			r.partialAlive[worker] += still
		})
		if collect {
			r.frontierCollected = true
			r.frontChunks = nc
			active := 0
			for c := 0; c < nc; c++ {
				active += len(r.frontBuf[c])
			}
			r.activeClients = active
		}
	}
	for w := range r.partialAccepted {
		accepted += r.partialAccepted[w]
		alive += r.partialAlive[w]
	}
	return accepted, alive
}

// neighborhoodStats computes S_t, r_t and K_t (Definitions 3, 5, 6) for
// the current round. It costs O(|E|) and is only invoked when
// Options.TrackNeighborhoods is set. Per-server received counts are read
// through the tally, which resolves them correctly in both engine modes.
func (r *Runner) neighborhoodStats() (maxBurnedFrac float64, maxReceived int, maxKt float64) {
	n := r.topo.NumClients()
	type partial struct {
		frac float64
		recv int64
		kt   float64
	}
	partials := make([]partial, r.pool.Workers())
	cd := float64(r.params.C) * float64(r.d)
	r.pool.ParallelRange(n, func(worker, lo, hi int) {
		p := partial{}
		for v := lo; v < hi; v++ {
			nbrs := r.draws.row(worker, v)
			if len(nbrs) == 0 {
				continue
			}
			var burnedCnt int
			var recvSum int64
			for _, u := range nbrs {
				if r.burned[u] {
					burnedCnt++
				}
				recvSum += int64(r.tally.ReceivedAt(u))
			}
			frac := float64(burnedCnt) / float64(len(nbrs))
			if frac > p.frac {
				p.frac = frac
			}
			if recvSum > p.recv {
				p.recv = recvSum
			}
			r.cumNbrReceived[v] += recvSum
			kt := float64(r.cumNbrReceived[v]) / (cd * float64(len(nbrs)))
			if kt > p.kt {
				p.kt = kt
			}
		}
		partials[worker] = p
	})
	for _, p := range partials {
		if p.frac > maxBurnedFrac {
			maxBurnedFrac = p.frac
		}
		if int(p.recv) > maxReceived {
			maxReceived = int(p.recv)
		}
		if p.kt > maxKt {
			maxKt = p.kt
		}
	}
	return maxBurnedFrac, maxReceived, maxKt
}

// hasStarvedClient reports whether some client still holding balls has a
// fully burned neighborhood (it can never terminate). Only meaningful for
// SAER. The sparse path checks only the frontier — exactly the clients
// that can be starved.
func (r *Runner) hasStarvedClient() bool {
	starvedAt := func(worker, v int) int64 {
		for _, u := range r.draws.row(worker, v) {
			if !r.burned[u] {
				return 0
			}
		}
		return 1
	}
	if r.sparse {
		return r.pool.ReduceInt64(len(r.frontier), func(worker, lo, hi int) int64 {
			for idx := lo; idx < hi; idx++ {
				if starvedAt(worker, int(r.frontier[idx])) != 0 {
					return 1
				}
			}
			return 0
		}) > 0
	}
	return r.pool.ReduceInt64(r.topo.NumClients(), func(worker, lo, hi int) int64 {
		for v := lo; v < hi; v++ {
			if r.alive[v] == 0 {
				continue
			}
			if starvedAt(worker, v) != 0 {
				return 1
			}
		}
		return 0
	}) > 0
}

// fillLoadStats computes the final load summary (and optionally the full
// load vector) into res.
func (r *Runner) fillLoadStats(res *Result) {
	m := r.topo.NumServers()
	maxLoad := 0
	minLoad := int(^uint(0) >> 1)
	var sum int64
	for u := 0; u < m; u++ {
		l := int(r.load[u])
		if l > maxLoad {
			maxLoad = l
		}
		if l < minLoad {
			minLoad = l
		}
		sum += int64(l)
	}
	if m == 0 {
		minLoad = 0
	}
	res.MaxLoad = maxLoad
	res.MinLoad = minLoad
	res.MeanLoad = float64(sum) / float64(m)
	if r.opts.TrackLoads {
		res.Loads = make([]int, m)
		for u := 0; u < m; u++ {
			res.Loads[u] = int(r.load[u])
		}
	}
}
