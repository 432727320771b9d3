package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Driver is the transport-agnostic client side of the protocol: it draws
// every ball's destination from the same per-client random streams as
// the Runner, batches each round's (server, count) pairs through a
// ServerBank, and assembles the identical Result. With a LocalBank the
// whole protocol runs in this process; with a wire bank the servers live
// in remote shard processes and the Driver becomes the load generator.
// Either way the outcome is bit-for-bit the Runner's for the same
// (topology, config, seed) — the equivalence suite pins that, and the
// wire smoke job asserts it end to end over real sockets.
//
// The client phase fans out over Config.Workers goroutines through the
// same engine substrate as the in-process round loop: the work-stealing
// scheduler walks disjoint chunks of the frontier (each client drawing
// from its private stream, so the draws are worker-count-independent),
// destinations are bucketed into per-(worker, server-shard) route lanes,
// and the per-shard folds emit ascending window-local touched lists from
// their occupancy bitmaps, whose shard-order concatenation is the
// globally sorted batch — no sort at all, and bit-for-bit the
// single-threaded Driver's batch for every worker count and steal
// schedule. The bank sees exactly the same bytes either way; only the
// wall-clock changes.
type Driver struct {
	topo bipartite.Topology
	cfg  Config
	bank ServerBank

	// draws is the per-client draw kernel shared with the Runner. Its
	// point-query view is re-derived per Run (reset), since the wire
	// executor reuses one Driver across mutating churn epochs whose
	// queryability can flip. The Driver keeps no row cache.
	draws drawKernel

	capacity int32
	d        int

	pool   *engine.Pool
	router *engine.Router
	// tally is the round's request accumulator in stamped mode: counts
	// live in the merged view, first touches are detected by epoch stamp
	// (Router.FoldShard), and the round-end reset is O(1).
	tally *engine.Tally

	alive    []int32
	choices  []int32
	streams  []rng.Stream
	frontier []int32

	touched      []int32
	countsArg    []int32
	shardTouched [][]int32 // per-shard ascending touched lists of the current round

	// acceptedRound[u] == round ⇔ server u accepted this round (from the
	// bank's decision); burned mirrors the bank's burned flags so the
	// neighborhood statistics and the starvation check stay client-side.
	acceptedRound []int32
	burned        []bool

	// Per-worker reduction scratch (order-independent sums/maxima — the
	// steal-schedule-safe accumulation shapes) and per-chunk survivor
	// lanes for the frontier compaction (chunk boundaries are a pure
	// function of the frontier length, so concatenating in chunk order is
	// schedule-independent).
	partialSent  []int64
	partialAcc   []int64
	partialAlive []int64
	partialFrac  []float64
	partialRecv  []int64
	partialKt    []float64
	chunkSurv    [][]int32

	cumNbrReceived []int64
	assignments    [][]int32

	// observer, when non-nil, is called once per completed round (after
	// the bank's decision is applied) — the wire client hooks its latency
	// and throughput capture here.
	observer RoundObserver

	// tel is the run's telemetry bundle (nil when Config.Telemetry is
	// unset); shared instrument names with the Runner, see runTel.
	tel *runTel
}

// RoundObserver receives one callback per completed round with the
// round's request volume; the wire client uses it to timestamp round
// trips for the latency summary.
type RoundObserver func(round int, requests int64)

// NewDriver validates the configuration against topo (the same checks as
// NewRunner) and allocates the client-side run state. The bank is not
// touched until Run, which Resets it first — so a freshly dialed wire
// bank can be handed over as-is.
func NewDriver(topo bipartite.Topology, cfg Config, bank ServerBank) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	n := topo.NumClients()
	m := topo.NumServers()
	if cfg.InitialLoads != nil && len(cfg.InitialLoads) != m {
		return nil, fmt.Errorf("core: InitialLoads has %d entries for %d servers", len(cfg.InitialLoads), m)
	}
	if cfg.RequestCounts != nil {
		if len(cfg.RequestCounts) != n {
			return nil, fmt.Errorf("core: RequestCounts has %d entries for %d clients", len(cfg.RequestCounts), n)
		}
		for v, c := range cfg.RequestCounts {
			if c < 0 || c > cfg.D {
				return nil, fmt.Errorf("core: RequestCounts[%d] = %d outside [0, D=%d]", v, c, cfg.D)
			}
		}
	}
	if bank == nil {
		return nil, fmt.Errorf("core: driver needs a server bank")
	}
	pool := engine.NewPool(cfg.Workers)
	workers := pool.Workers()
	d := &Driver{
		topo:     topo,
		cfg:      cfg,
		bank:     bank,
		capacity: int32(cfg.Params().Capacity()),
		d:        cfg.D,

		pool:   pool,
		router: engine.NewRouter(workers, workers, m),

		alive:   make([]int32, n),
		choices: make([]int32, n*cfg.D),
		streams: make([]rng.Stream, n),

		acceptedRound: make([]int32, m),
		burned:        make([]bool, m),

		partialSent:  make([]int64, workers),
		partialAcc:   make([]int64, workers),
		partialAlive: make([]int64, workers),
	}
	d.tel = newRunTel(cfg.Telemetry)
	instrumentPool(cfg.Telemetry, pool)
	d.tally = engine.NewTally(pool, m)
	d.tally.BeginStamped()
	d.shardTouched = make([][]int32, d.router.Shards())
	d.draws.bind(topo, workers)
	if cfg.TrackNeighborhoods {
		d.cumNbrReceived = make([]int64, n)
		d.partialFrac = make([]float64, workers)
		d.partialRecv = make([]int64, workers)
		d.partialKt = make([]float64, workers)
	}
	if cfg.TrackAssignments {
		d.assignments = make([][]int32, n)
	}
	return d, nil
}

// NewLocalDriver wires a Driver to an in-process LocalBank of `shards`
// server shards — the single-process way to run the bank/driver split
// (and the reference the wire transport is cross-checked against).
func NewLocalDriver(topo bipartite.Topology, cfg Config, shards int) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bank, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers(), shards)
	if err != nil {
		return nil, err
	}
	return NewDriver(topo, cfg, bank)
}

// SetObserver installs the per-round callback (nil to remove).
func (dr *Driver) SetObserver(obs RoundObserver) { dr.observer = obs }

// Reseed sets the protocol seed of the next Run.
func (dr *Driver) Reseed(seed uint64) { dr.cfg.Seed = seed }

// reset rebuilds all client-side per-run state and Resets the bank, so
// every Run is independent: a wire server process that was killed and
// restarted between epochs is indistinguishable from one that stayed up.
func (dr *Driver) reset() (aliveTotal int64, err error) {
	dr.frontier = dr.frontier[:0]
	for v := range dr.alive {
		a := int32(dr.d)
		if dr.cfg.RequestCounts != nil {
			a = int32(dr.cfg.RequestCounts[v])
		}
		dr.alive[v] = a
		if a > 0 {
			dr.frontier = append(dr.frontier, int32(v))
			aliveTotal += int64(a)
		}
	}
	for u := range dr.acceptedRound {
		dr.acceptedRound[u] = 0
		dr.burned[u] = false
	}
	if dr.cfg.InitialLoads != nil {
		for u, l := range dr.cfg.InitialLoads {
			if int32(l) >= dr.capacity {
				dr.burned[u] = true
			}
		}
	}
	for v := range dr.cumNbrReceived {
		dr.cumNbrReceived[v] = 0
	}
	for v := range dr.assignments {
		dr.assignments[v] = dr.assignments[v][:0]
	}
	dr.router.Discard()
	dr.tally.FullReset(dr.pool)
	dr.draws.refresh()
	rng.ReseedStreamSlice(dr.streams, dr.cfg.Seed)
	return aliveTotal, dr.bank.Reset(dr.cfg.InitialLoads)
}

// Run executes the protocol against the bank until completion or the
// round cap and returns the Result. Run may be called again (after
// Reseed for an independent trial).
func (dr *Driver) Run() (*Result, error) {
	n := dr.topo.NumClients()
	m := dr.topo.NumServers()
	maxRounds := dr.cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds(n)
	}
	trackRounds := dr.cfg.TrackRounds || dr.cfg.TrackNeighborhoods

	res := &Result{
		Variant:    dr.cfg.Variant,
		Params:     dr.cfg.Params(),
		NumClients: n,
		NumServers: m,
	}
	if trackRounds {
		res.PerRound = make([]RoundStats, 0, CompletionBound(n)+4)
	}

	aliveTotal, err := dr.reset()
	if err != nil {
		return nil, err
	}
	res.TotalBalls = aliveTotal
	burnedTotal := 0
	round := 0
	for aliveTotal > 0 && round < maxRounds {
		round++
		sp := telemetry.StartSpan(dr.tel.drawHist())
		sent := dr.phaseClients()
		sp.End()
		dec, err := dr.decideRound(int32(round))
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		newlyBurned := len(dec.NewlyBurned)
		sp = telemetry.StartSpan(dr.tel.updateHist())
		accepted, stillAlive := dr.phaseUpdateClients(int32(round))
		sp.End()
		dr.tel.countRound(sent, accepted)

		burnedTotal += newlyBurned
		res.TotalRequests += sent
		res.SaturationEvents += int64(dec.Saturated)

		if trackRounds {
			stats := RoundStats{
				Round:              round,
				AliveBalls:         int(aliveTotal),
				RequestsSent:       int(sent),
				RequestsAccepted:   int(accepted),
				NewlyBurned:        newlyBurned,
				BurnedTotal:        burnedTotal,
				SaturatedThisRound: dec.Saturated,
			}
			if dr.cfg.TrackNeighborhoods {
				stats.MaxNeighborhoodBurnedFrac, stats.MaxNeighborhoodReceived, stats.MaxKt =
					dr.neighborhoodStats()
			}
			res.PerRound = append(res.PerRound, stats)
		}
		if dr.observer != nil {
			dr.observer(round, sent)
		}

		aliveTotal = stillAlive
		if accepted == 0 && newlyBurned == 0 && aliveTotal > 0 && dr.cfg.Variant == SAER {
			if dr.hasStarvedClient() {
				break
			}
		}
	}

	res.Rounds = round
	res.Work = 2 * res.TotalRequests
	res.UnassignedBalls = int(aliveTotal)
	res.Completed = aliveTotal == 0
	res.BurnedServers = burnedTotal
	if err := dr.fillLoadStats(res); err != nil {
		return nil, err
	}
	if dr.cfg.TrackAssignments {
		res.Assignments = make([][]int32, len(dr.assignments))
		for v, a := range dr.assignments {
			res.Assignments[v] = append([]int32(nil), a...)
		}
	}
	return res, nil
}

// phaseClients draws this round's destinations for every alive ball
// through the draw kernel the Runner uses — the identical per-client
// stream reads, in the identical per-client order — and routes them into
// the per-(worker, shard) lanes. The frontier is walked by the
// work-stealing scheduler; each client's draws depend only on its
// private stream, so the routed multiset is independent of the
// chunk-to-worker schedule. Returns the number of requests submitted.
func (dr *Driver) phaseClients() int64 {
	dr.router.ResetLanes()
	dr.tally.StampedReset()
	shift := dr.router.Shift()
	clear(dr.partialSent)
	dr.pool.StealRange(len(dr.frontier), func(w, _, lo, hi int) {
		lanes := dr.router.Lanes(w)
		var sent int64
		for _, vv := range dr.frontier[lo:hi] {
			v := int(vv)
			base := v * dr.d
			out := dr.choices[base : base+int(dr.alive[v])]
			dr.draws.draw(w, v, &dr.streams[v], out)
			routeToLanes(lanes, shift, out)
			sent += int64(len(out))
		}
		dr.partialSent[w] += sent
	})
	var sent int64
	for _, v := range dr.partialSent {
		sent += v
	}
	return sent
}

// decideRound folds the route lanes shard by shard (each fold owned by
// one goroutine and returning its window's touched servers in ascending
// order), concatenates the per-shard lists in shard order — contiguous
// ascending windows, so the result is the globally sorted batch the bank
// requires — and ships it to the bank. Decision stamps are applied to
// the accepted/burned state.
func (dr *Driver) decideRound(round int32) (RoundDecision, error) {
	sp := telemetry.StartSpan(dr.tel.foldHist())
	shards := dr.router.Shards()
	dr.pool.StealRangeGrain(shards, 1, func(_, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			dr.shardTouched[s] = dr.router.FoldShard(s, dr.tally)
		}
	})
	dr.touched = dr.touched[:0]
	dr.countsArg = dr.countsArg[:0]
	merged := dr.tally.Merged()
	for _, t := range dr.shardTouched {
		for _, u := range t {
			dr.touched = append(dr.touched, u)
			dr.countsArg = append(dr.countsArg, merged[u])
		}
	}
	sp.End()
	sp = telemetry.StartSpan(dr.tel.decideHist())
	dec, err := dr.bank.DecideRound(dr.touched, dr.countsArg)
	sp.End()
	if err != nil {
		return dec, err
	}
	for _, u := range dec.Accepted {
		dr.acceptedRound[u] = round
	}
	for _, u := range dec.NewlyBurned {
		dr.burned[u] = true
	}
	return dec, nil
}

// phaseUpdateClients counts each frontier client's accepted requests and
// compacts the survivors: workers fill per-chunk survivor lanes, whose
// chunk-order concatenation preserves the frontier's ascending order for
// every steal schedule.
func (dr *Driver) phaseUpdateClients(round int32) (accepted, alive int64) {
	numChunks := dr.pool.NumChunks(len(dr.frontier))
	for len(dr.chunkSurv) < numChunks {
		dr.chunkSurv = append(dr.chunkSurv, nil)
	}
	clear(dr.partialAcc)
	clear(dr.partialAlive)
	dr.pool.StealRange(len(dr.frontier), func(w, chunk, lo, hi int) {
		surv := dr.chunkSurv[chunk][:0]
		var acc, still int64
		for _, vv := range dr.frontier[lo:hi] {
			v := int(vv)
			a := dr.alive[v]
			base := v * dr.d
			var got int32
			for i := int32(0); i < a; i++ {
				u := dr.choices[base+int(i)]
				if dr.acceptedRound[u] == round {
					got++
					if dr.assignments != nil {
						dr.assignments[v] = append(dr.assignments[v], u)
					}
				}
			}
			rem := a - got
			dr.alive[v] = rem
			if rem > 0 {
				surv = append(surv, vv)
				still += int64(rem)
			}
			acc += int64(got)
		}
		dr.chunkSurv[chunk] = surv
		dr.partialAcc[w] += acc
		dr.partialAlive[w] += still
	})
	next := dr.frontier[:0]
	for _, surv := range dr.chunkSurv[:numChunks] {
		next = append(next, surv...)
	}
	dr.frontier = next
	for w := range dr.partialAcc {
		accepted += dr.partialAcc[w]
		alive += dr.partialAlive[w]
	}
	return accepted, alive
}

// neighborhoodStats computes S_t, r_t and K_t for the current round —
// the Runner's definitions over the client-side mirror of the server
// state (burned flags from the decisions, received counts from the
// tally) — with per-worker maxima folded after the parallel sweep
// (order-independent, so steal-schedule-safe).
func (dr *Driver) neighborhoodStats() (maxBurnedFrac float64, maxReceived int, maxKt float64) {
	n := dr.topo.NumClients()
	cd := float64(dr.cfg.C) * float64(dr.d)
	clear(dr.partialFrac)
	clear(dr.partialRecv)
	clear(dr.partialKt)
	dr.pool.StealRange(n, func(w, _, lo, hi int) {
		frac, recv, kt := dr.partialFrac[w], dr.partialRecv[w], dr.partialKt[w]
		for v := lo; v < hi; v++ {
			nbrs := dr.draws.row(w, v)
			if len(nbrs) == 0 {
				continue
			}
			var burnedCnt int
			var recvSum int64
			for _, u := range nbrs {
				if dr.burned[u] {
					burnedCnt++
				}
				recvSum += int64(dr.tally.ReceivedAt(u))
			}
			if f := float64(burnedCnt) / float64(len(nbrs)); f > frac {
				frac = f
			}
			if recvSum > recv {
				recv = recvSum
			}
			dr.cumNbrReceived[v] += recvSum
			if k := float64(dr.cumNbrReceived[v]) / (cd * float64(len(nbrs))); k > kt {
				kt = k
			}
		}
		dr.partialFrac[w], dr.partialRecv[w], dr.partialKt[w] = frac, recv, kt
	})
	var recv int64
	for w := range dr.partialFrac {
		if dr.partialFrac[w] > maxBurnedFrac {
			maxBurnedFrac = dr.partialFrac[w]
		}
		if dr.partialRecv[w] > recv {
			recv = dr.partialRecv[w]
		}
		if dr.partialKt[w] > maxKt {
			maxKt = dr.partialKt[w]
		}
	}
	return maxBurnedFrac, int(recv), maxKt
}

// hasStarvedClient reports whether some frontier client's whole
// neighborhood is burned (the SAER hopeless-run early exit).
func (dr *Driver) hasStarvedClient() bool {
	for _, vv := range dr.frontier {
		starved := true
		for _, u := range dr.draws.row(0, int(vv)) {
			if !dr.burned[u] {
				starved = false
				break
			}
		}
		if starved {
			return true
		}
	}
	return false
}

// fillLoadStats computes the final load summary from the bank's load
// vector (and optionally copies the vector itself).
func (dr *Driver) fillLoadStats(res *Result) error {
	loads, err := dr.bank.Loads()
	if err != nil {
		return err
	}
	m := dr.topo.NumServers()
	if len(loads) != m {
		return fmt.Errorf("core: bank returned %d loads for %d servers", len(loads), m)
	}
	maxLoad := 0
	minLoad := int(^uint(0) >> 1)
	var sum int64
	for _, l32 := range loads {
		l := int(l32)
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
	if dr.cfg.TrackLoads {
		res.Loads = make([]int, m)
		for u, l := range loads {
			res.Loads[u] = int(l)
		}
	}
	return nil
}
