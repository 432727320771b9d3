package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/wire"
)

// bankShards is the server-shard count of every bank the benchmark
// builds: the LocalBanks of the Driver passes and the wire server.
const bankShards = 2

// inprocSpec is an in-process workload: one topology, one Runner reused
// across trials (Reseed + Run, as the sweep engine does).
type inprocSpec struct {
	name  string
	build func(seed uint64) (bipartite.Topology, error)
	cfg   core.Config
	// prefix is the number of leading trials over which the
	// deterministic metrics and the digest are taken; every run makes
	// at least this many.
	prefix int
}

var regularDense = inprocSpec{
	name: "regular-dense",
	build: func(seed uint64) (bipartite.Topology, error) {
		// n = 2²², Δ = ⌈log₂² n⌉ = 484: the paper's dense regime.
		return gen.RegularImplicit(1<<22, 484, seed)
	},
	cfg:    core.NewConfig(core.SAER, 2, 4, 0),
	prefix: 30,
}

var erdosTail = inprocSpec{
	name: "erdos-tail",
	build: func(seed uint64) (bipartite.Topology, error) {
		const n = 1 << 16
		return gen.ErdosRenyiImplicit(n, n, 256.0/n, true, seed)
	},
	cfg:    core.NewConfig(core.SAER, 2, 1.5, 0),
	prefix: 24,
}

func runRegularDense(o runOpts, traced bool) (*outcome, error) { return regularDense.run(o, traced) }
func runErdosTail(o runOpts, traced bool) (*outcome, error)    { return erdosTail.run(o, traced) }

type inprocInst struct {
	topo     bipartite.Topology
	runner   *core.Runner
	buildDur time.Duration
}

// setup builds the topology and the Runner and runs one untimed warm-up
// trial; it returns the instance and the whole set-up time.
func (sp inprocSpec) setup(seed uint64, led *ledger) (*inprocInst, time.Duration, error) {
	t0 := time.Now()
	topo, err := sp.build(derive(seed, saltGraph, 0))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: building the topology: %w", sp.name, err)
	}
	buildDur := time.Since(t0)
	r, err := sp.cfg.NewRunner(topo)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", sp.name, err)
	}
	r.Reseed(derive(seed, saltWarm, 0))
	led.op(checkResult(r.Run()), "warm-up trial")
	return &inprocInst{topo: topo, runner: r, buildDur: buildDur}, time.Since(t0), nil
}

// runnerLoop runs timed Reseed + Run trials with the seeds of trial
// indices 0, 1, ... until dur has passed and at least minTrials ran,
// with a reference slice of cal (may be nil) between trials every
// calEvery.
func runnerLoop(r *core.Runner, seed uint64, minTrials int, dur time.Duration, cal *calibrator, led *ledger) ([]trialRec, []*core.Result) {
	var recs []trialRec
	var results []*core.Result
	t0 := time.Now()
	for i := 0; i < minTrials || time.Since(t0) < dur; i++ {
		sm := markSteal()
		ts := time.Now()
		r.Reseed(derive(seed, saltTrial, i))
		res := r.Run()
		d := time.Since(ts)
		led.op(checkResult(res), fmt.Sprintf("trial %d", i))
		recs = append(recs, recFromResult(res, d, sm.share()))
		results = append(results, res)
		cal.tick()
	}
	return recs, results
}

// perTrialRoundUs is each trial's wall time divided by its rounds: the
// Runner exposes no round boundary, so an in-process trial contributes
// its mean round latency as one sample.
func perTrialRoundUs(recs []trialRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = durUs(r.dur) / float64(max(r.rounds, 1))
	}
	return out
}

func (sp inprocSpec) run(o runOpts, traced bool) (*outcome, error) {
	led := &ledger{}
	if traced {
		return sp.runTraced(o, led)
	}
	var inst *inprocInst
	var setups []timed
	setupCal := newCalibrator()
	for moreSetups(setups) {
		inst = nil
		runtime.GC()
		sm, c0 := markSteal(), cpuTime()
		in, d, err := sp.setup(o.seed, led)
		if err != nil {
			return nil, err
		}
		inst, setups = in, append(setups, timed{d, sm.share(), cpuTime() - c0})
		setupCal.slice()
	}
	runtime.GC()
	cal := newCalibrator()
	cal.slice()
	m := startMeter(cal)
	recs, results := runnerLoop(inst.runner, o.seed, sp.prefix, o.dur, cal, led)
	reg := m.stop()
	cal.slice()
	rss := peakRSSMB("self")
	ms, extra, note := e2e(setups, setupCal, recs, 1, reg.wall, reg.cpu, cal, perTrialRoundUs(recs), sp.prefix, rss)

	// Check pass, outside the timed region: replay the first and the
	// last trial on the Driver over a LocalBank.
	sample := []int{0}
	if len(results) > 1 {
		sample = append(sample, len(results)-1)
	}
	if err := sp.crossCheck(inst.topo, o.seed, results, sample, led); err != nil {
		return nil, err
	}

	regionMetrics(extra, reg, len(recs))
	return &outcome{
		metrics: ms, extra: extra,
		notes:  []string{note, fmt.Sprintf("check pass: trials %v replayed on core.Driver over a LocalBank", sample)},
		digest: digest(recs, sp.prefix), digestN: sp.prefix,
		knobs:     sp.cfg.ResolveKnobs(inst.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}

// crossCheck re-runs the sampled trials on core.Driver over a LocalBank
// and requires results equal to the Runner's and loads summing to the
// balls placed.
func (sp inprocSpec) crossCheck(topo bipartite.Topology, seed uint64, results []*core.Result, sample []int, led *ledger) error {
	bank, err := core.NewLocalBank(sp.cfg.Variant, int32(sp.cfg.Params().Capacity()), topo.NumServers(), bankShards)
	if err != nil {
		return err
	}
	dr, err := core.NewDriver(topo, sp.cfg, bank)
	if err != nil {
		return err
	}
	for _, i := range sample {
		dr.Reseed(derive(seed, saltTrial, i))
		res, err := dr.Run()
		what := fmt.Sprintf("check of trial %d (Runner vs Driver)", i)
		if !led.op(err, what) {
			continue
		}
		led.op(sameResult(results[i], res), what)
		led.op(loadSum(bank, 0, res), fmt.Sprintf("load sum of trial %d", i))
	}
	return nil
}

func sameResult(want, got *core.Result) error {
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("results differ:\n want %+v\n got  %+v", *want, *got)
	}
	return nil
}

// loadSum requires the bank's loads to sum to the initial load plus the
// balls the run placed.
func loadSum(bank core.ServerBank, initial int64, res *core.Result) error {
	loads, err := bank.Loads()
	if err != nil {
		return err
	}
	var sum int64
	for _, l := range loads {
		sum += int64(l)
	}
	if want := initial + res.TotalBalls - int64(res.UnassignedBalls); sum != want {
		return fmt.Errorf("loads sum to %d, want %d", sum, want)
	}
	return nil
}

// runTraced is the traced run: an untraced Runner segment, then the same
// seeds on the Runner over the counting topology (gen counters) and on
// the Driver with and without the timing bank (phase split,
// Driver/Runner ratio). Every traced result must equal the untraced one.
func (sp inprocSpec) runTraced(o runOpts, led *ledger) (*outcome, error) {
	inst, _, err := sp.setup(o.seed, led)
	if err != nil {
		return nil, err
	}
	ms := newMetricSet()
	ms.set("gen.build_s", inst.buildDur.Seconds(), "s")
	r := inst.runner
	runtime.GC()

	// (a) Untraced Runner segment: the reference results and the
	// allocation and CPU figures.
	m := startMeter(nil)
	recs, results := runnerLoop(r, o.seed, 3, o.dur/3, nil, led)
	reg := m.stop()
	runnerMs := make([]float64, len(recs))
	var sent, accepted int64
	var rounds int
	for i, rc := range recs {
		runnerMs[i] = durMs(rc.dur)
		sent += rc.requests
		accepted += rc.balls
		rounds += rc.rounds
	}
	log := &spanLog{t0: time.Now()}

	// (b) The Runner over the counting topology, same seeds.
	wt, ct := wrapTopology(inst.topo)
	if err := r.SwapTopology(wt); err != nil {
		return nil, err
	}
	var wrappedMs []float64
	var wrappedSent int64
	deadline := time.Now().Add(o.dur / 6)
	for j := 0; j < len(results) && (j < 2 || time.Now().Before(deadline)); j++ {
		ts := time.Now()
		r.Reseed(derive(o.seed, saltTrial, j))
		res := r.Run()
		end := time.Now()
		log.add("trial.runner", j, -1, ts, end)
		wrappedMs = append(wrappedMs, durMs(end.Sub(ts)))
		wrappedSent += res.TotalRequests
		led.op(sameResult(results[j], res), fmt.Sprintf("traced trial %d (counting topology)", j))
	}
	genMetrics(ms, len(wrappedMs), wrappedSent, ct)
	if err := r.SwapTopology(inst.topo); err != nil {
		return nil, err
	}

	// (c) The Driver over a LocalBank, plain and traced on alternate
	// orders, same seeds.
	m32 := inst.topo.NumServers()
	bank, err := core.NewLocalBank(sp.cfg.Variant, int32(sp.cfg.Params().Capacity()), m32, bankShards)
	if err != nil {
		return nil, err
	}
	windows, err := wire.SplitWindows(m32, bankShards)
	if err != nil {
		return nil, err
	}
	tb := newTracedBank(bank, windows, log)
	dr, err := core.NewDriver(inst.topo, sp.cfg, tb)
	if err != nil {
		return nil, err
	}
	var plainMs, tracedMs []float64
	deadline = time.Now().Add(o.dur / 2)
	for j := 0; j < len(results) && (j < 2 || time.Now().Before(deadline)); j++ {
		for k := 0; k < 2; k++ {
			on := (j+k)%2 == 1
			tb.on = on
			dr.SetObserver(nil)
			if on {
				dr.SetObserver(tb.observe)
				tb.beginTrial(j, results[j].TotalBalls)
			}
			dr.Reseed(derive(o.seed, saltTrial, j))
			ts := time.Now()
			res, err := dr.Run()
			d := time.Since(ts)
			what := fmt.Sprintf("traced trial %d (Driver, tracing=%v)", j, on)
			if on {
				tb.endTrial()
				tracedMs = append(tracedMs, durMs(d))
			} else {
				plainMs = append(plainMs, durMs(d))
			}
			if led.op(err, what) {
				led.op(sameResult(results[j], res), what)
			}
		}
	}

	ms.set("core.rounds", float64(rounds)/float64(len(recs)), "rounds")
	ms.set("core.requests", float64(sent)/float64(len(recs)), "requests")
	ms.set("core.accept_ratio", float64(accepted)/float64(sent), "accepted/sent")
	layerMetrics(ms, tb.rounds, len(tracedMs))
	ms.set("core.driver_over_runner", median(plainMs)/median(runnerMs[:len(plainMs)]), "ratio")
	regionMetrics(ms, reg, len(recs))
	base := median(runnerMs[:len(wrappedMs)])
	ms.set("trace.overhead_pct", 100*(median(wrappedMs)-base)/base, "%")

	extra := newMetricSet()
	extra.set("trace.untraced_trial_ms_p50", base, "ms")
	extra.set("trace.traced_trial_ms_p50", median(wrappedMs), "ms")
	extra.set("trace.driver_plain_ms_p50", median(plainMs), "ms")
	extra.set("trace.driver_traced_ms_p50", median(tracedMs), "ms")
	extra.set("trace.bank_overhead_pct", 100*(median(tracedMs)-median(plainMs))/median(plainMs), "%")

	notes := []string{fmt.Sprintf("traced run: %d untraced Runner trials, %d on the counting topology, %d+%d Driver trials (plain+traced), each compared with the untraced result",
		len(recs), len(wrappedMs), len(plainMs), len(tracedMs))}
	if err := o.writeTrace(sp.name, log.spans, &notes); err != nil {
		return nil, err
	}
	return &outcome{
		metrics: orderPerLayer(ms), extra: extra, notes: notes,
		digest: digest(recs, len(recs)), digestN: len(recs),
		knobs:     sp.cfg.ResolveKnobs(inst.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}
