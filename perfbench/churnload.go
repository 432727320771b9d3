package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/wire"
)

// churn-epoch: a churn scenario over a trust-subset topology; one trial
// is one epoch in which every present client re-demands and a tenth of
// them rewire.
const (
	churnN      = 1 << 18
	churnK      = 16
	churnPrefix = 60
	// churnReplay is how many epochs the check pass replays on the
	// CSR-patch backend.
	churnReplay = 20
)

func churnProtocol() core.Config { return core.NewConfig(core.SAER, 2, 4, 0) }

// epochEvent is epoch j's event (j = 0 is the warm-up). Clients never
// arrive or depart, so the present set, and with it the event, depends
// only on the seed and j.
func epochEvent(topo *churn.Topology, seed uint64, j int) churn.EpochEvent {
	src := rng.New(derive(seed, saltEvent, j))
	return churn.EpochEvent{Dt: 1, RedemandAll: true, Rewire: topo.SamplePresent(src, topo.NumPresent()/10)}
}

// epochExec reproduces the public calls of churn's default executor —
// one Runner, built on the first epoch and then PatchTopology + Reseed
// per epoch — and hands each epoch's result to an optional hook.
type epochExec struct {
	topo   bipartite.Topology // what the Runner reads: the scenario topology or its counting wrapper
	scen   *churn.Topology
	cfg    core.Config
	runner *core.Runner

	last                 *core.Result
	runStart, runEnd     time.Time
	patchStart, patchEnd time.Time
	hook                 func(x *epochExec, seed uint64) error
}

func (x *epochExec) RunEpoch(seed uint64) (*core.Result, error) {
	x.runStart = time.Now()
	x.patchStart = time.Time{}
	if x.runner == nil {
		cfg := x.cfg
		cfg.Seed = seed
		r, err := cfg.NewRunner(x.topo)
		if err != nil {
			return nil, err
		}
		x.runner = r
	} else {
		x.patchStart = time.Now()
		if err := x.runner.PatchTopology(); err != nil {
			return nil, err
		}
		x.patchEnd = time.Now()
		x.runner.Reseed(seed)
	}
	res := x.runner.Run()
	x.runEnd = time.Now()
	x.last = res
	if x.hook != nil {
		if err := x.hook(x, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type churnInst struct {
	topo     *churn.Topology
	sched    *churn.Scheduler
	exec     *epochExec
	counter  *countingTopo // non-nil when the Runner reads a counting wrapper
	buildDur time.Duration
}

// setupChurn builds the scenario, its scheduler and executor, and steps
// the untimed warm-up epoch.
func setupChurn(seed uint64, backend churn.Backend, count bool, hook func(*epochExec, uint64) error, led *ledger) (*churnInst, time.Duration, error) {
	t0 := time.Now()
	base, err := gen.TrustSubsetImplicit(churnN, churnN, churnK, derive(seed, saltGraph, 0))
	if err != nil {
		return nil, 0, err
	}
	topo, err := churn.New(churn.Config{Base: base, Sampler: churn.TrustSampler(churnN, churnK),
		Seed: derive(seed, saltChurn, 0), Backend: backend})
	if err != nil {
		return nil, 0, err
	}
	ci := &churnInst{topo: topo, buildDur: time.Since(t0), exec: &epochExec{hook: hook}}
	sc := churn.SchedulerConfig{
		Protocol:   churnProtocol(),
		LoadExpiry: 0.5,
		NewExecutor: func(t *churn.Topology, cfg core.Config) (churn.Executor, error) {
			ci.exec.topo, ci.exec.scen, ci.exec.cfg = t, t, cfg
			if count {
				ci.exec.topo, ci.counter = wrapTopology(t)
			}
			return ci.exec, nil
		},
	}
	ci.sched, err = churn.NewScheduler(topo, sc, derive(seed, saltSchedr, 0))
	if err != nil {
		return nil, 0, err
	}
	if _, err := ci.sched.Step(epochEvent(topo, seed, 0)); led.op(err, "warm-up epoch") {
		led.op(checkResult(ci.exec.last), "warm-up epoch")
	}
	return ci, time.Since(t0), nil
}

// epochLoop steps timed epochs 1, 2, ... until dur has passed and at
// least minEpochs ran, with a reference slice of cal (may be nil)
// between epochs every calEvery. Each event is generated before its
// epoch's clock starts. It returns the epoch records and outcomes;
// Runner results are not kept, since each holds a full load vector.
func epochLoop(ci *churnInst, seed uint64, minEpochs int, dur time.Duration, cal *calibrator, led *ledger,
	before func(j int), after func(j int)) ([]trialRec, []*churn.EpochOutcome) {
	var recs []trialRec
	var outs []*churn.EpochOutcome
	var spent time.Duration
	for j := 1; j-1 < minEpochs || spent < dur; j++ {
		ev := epochEvent(ci.topo, seed, j)
		if before != nil {
			before(j)
		}
		sm := markSteal()
		ts := time.Now()
		out, err := ci.sched.Step(ev)
		d := time.Since(ts)
		steal := sm.share()
		if after != nil {
			after(j)
		}
		spent += d
		what := fmt.Sprintf("epoch %d", j)
		if !led.op(err, what) {
			return recs, outs
		}
		res := ci.exec.last
		led.op(checkResult(res), what)
		recs = append(recs, trialRec{dur: d, steal: steal, rounds: out.Rounds, requests: res.TotalRequests, work: res.Work,
			balls: int64(out.DemandBalls - out.UnassignedBalls), maxLoad: out.MaxLoad})
		outs = append(outs, out)
		cal.tick()
	}
	return recs, outs
}

func runChurnEpoch(o runOpts, traced bool) (*outcome, error) {
	led := &ledger{}
	if traced {
		return runChurnTraced(o, led)
	}
	var ci *churnInst
	var setups []timed
	setupCal := newCalibrator()
	for moreSetups(setups) {
		ci = nil
		runtime.GC()
		sm, c0 := markSteal(), cpuTime()
		in, d, err := setupChurn(o.seed, churn.BackendImplicit, false, nil, led)
		if err != nil {
			return nil, err
		}
		ci, setups = in, append(setups, timed{d, sm.share(), cpuTime() - c0})
		setupCal.slice()
	}
	runtime.GC()
	cal := newCalibrator()
	cal.slice()
	m := startMeter(cal)
	recs, outs := epochLoop(ci, o.seed, churnPrefix, o.dur, cal, led, nil, nil)
	reg := m.stop()
	cal.slice()
	rss := peakRSSMB("self")
	var wall time.Duration
	for _, r := range recs {
		wall += r.dur
	}
	ms, extra, note := e2e(setups, setupCal, recs, 1, wall, reg.cpu, cal, perTrialRoundUs(recs), churnPrefix, rss)

	// Check pass: replay the warm-up and the first epochs on the
	// CSR-patch backend; every outcome must match and every epoch's
	// loads must sum to the carried load plus the balls placed.
	loadCheck := func(x *epochExec, _ uint64) error {
		var initial int64
		for _, l := range x.cfg.InitialLoads {
			initial += int64(l)
		}
		var sum int64
		for _, l := range x.last.Loads {
			sum += int64(l)
		}
		res := x.last
		if want := initial + res.TotalBalls - int64(res.UnassignedBalls); sum != want {
			return fmt.Errorf("loads sum to %d, want %d", sum, want)
		}
		return nil
	}
	replay, _, err := setupChurn(o.seed, churn.BackendCSRPatch, false, loadCheck, led)
	if err != nil {
		return nil, err
	}
	_, replayOuts := epochLoop(replay, o.seed, min(churnReplay, len(outs)), 0, nil, led, nil, nil)
	for j := range replayOuts {
		led.op(sameOutcome(outs[j], replayOuts[j]), fmt.Sprintf("check of epoch %d (implicit vs CSR-patch backend)", j+1))
	}

	regionMetrics(extra, reg, len(recs))
	return &outcome{
		metrics: ms, extra: extra,
		notes: []string{note, "balls_per_s divides by the summed epoch times (event generation is excluded)",
			fmt.Sprintf("check pass: warm-up and epochs 1..%d replayed on BackendCSRPatch with a load-sum check", len(replayOuts))},
		digest: digest(recs, churnPrefix), digestN: churnPrefix,
		knobs:     churnProtocol().ResolveKnobs(ci.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}

// runChurnTraced: an untraced scenario, then a second scenario on the
// same seeds whose executor runs the Runner over the counting topology
// with epoch → churn.run → churn.patch spans, and replays each epoch on
// the Driver over a LocalBank (traced on odd epochs, plain on even ones)
// for the phase split. Every result must equal the untraced one.
func runChurnTraced(o runOpts, led *ledger) (*outcome, error) {
	ms := newMetricSet()
	a, _, err := setupChurn(o.seed, churn.BackendImplicit, false, nil, led)
	if err != nil {
		return nil, err
	}
	// runA[i] is the untraced Runner time of epoch i+1.
	var runA []float64
	a.exec.hook = func(x *epochExec, _ uint64) error {
		runA = append(runA, durMs(x.runEnd.Sub(x.runStart)))
		return nil
	}
	runtime.GC()
	m := startMeter(nil)
	recsA, outsA := epochLoop(a, o.seed, 4, o.dur/3, nil, led, nil, nil)
	reg := m.stop()
	var sent, accepted int64
	var rounds int
	for _, r := range recsA {
		sent += r.requests
		accepted += r.balls
		rounds += r.rounds
	}

	log := &spanLog{t0: time.Now()}
	var tb *tracedBank
	var dr *core.Driver
	var epoch, epochSpan int
	var runMs, patchMs, replayMs, plainMs, tracedMs []float64
	var plainIdx []int
	hook := func(x *epochExec, seed uint64) error {
		run := log.add("churn.run", epoch, epochSpan, x.runStart, x.runEnd)
		if !x.patchStart.IsZero() {
			log.add("churn.patch", epoch, run, x.patchStart, x.patchEnd)
			patchMs = append(patchMs, durMs(x.patchEnd.Sub(x.patchStart)))
		}
		runMs = append(runMs, durMs(x.runEnd.Sub(x.runStart)))
		if dr == nil {
			bank, err := core.NewLocalBank(x.cfg.Variant, int32(x.cfg.Params().Capacity()), churnN, bankShards)
			if err != nil {
				return err
			}
			windows, err := wire.SplitWindows(churnN, bankShards)
			if err != nil {
				return err
			}
			tb = newTracedBank(bank, windows, log)
			if dr, err = core.NewDriver(x.scen, x.cfg, tb); err != nil {
				return err
			}
		}
		on := epoch%2 == 1
		tb.on = on
		dr.SetObserver(nil)
		if on {
			dr.SetObserver(tb.observe)
			tb.beginTrial(epoch, x.last.TotalBalls)
			log.spans[tb.trialSpan].Parent = epochSpan
		}
		dr.Reseed(seed)
		ts := time.Now()
		res, err := dr.Run()
		end := time.Now()
		d := end.Sub(ts)
		replayMs = append(replayMs, durMs(d))
		if on {
			tb.endTrial()
			tracedMs = append(tracedMs, durMs(d))
		} else {
			log.add("replay.plain", epoch, epochSpan, ts, end)
			plainMs = append(plainMs, durMs(d))
			plainIdx = append(plainIdx, epoch-1)
		}
		what := fmt.Sprintf("Driver replay of epoch %d", epoch)
		if led.op(err, what) {
			led.op(sameResult(x.last, res), what)
		}
		return nil
	}
	b, _, err := setupChurn(o.seed, churn.BackendImplicit, true, nil, led)
	if err != nil {
		return nil, err
	}
	ms.set("gen.build_s", b.buildDur.Seconds(), "s")
	b.counter.take() // drop the warm-up epoch's counts
	b.exec.hook = hook
	recsB, outsB := epochLoop(b, o.seed, 4, o.dur/2, nil, led,
		func(j int) {
			now := time.Now()
			epoch, epochSpan = j, log.add("epoch", j, -1, now, now)
		},
		func(int) { log.spans[epochSpan].End = time.Since(log.t0).Nanoseconds() })
	var sentB int64
	var mutateMs []float64
	var rewired, burnedAtStart float64
	for i, r := range recsB {
		sentB += r.requests
		mutateMs = append(mutateMs, durMs(r.dur)-runMs[i]-replayMs[i])
		rewired += float64(outsB[i].Rewired)
		burnedAtStart += float64(outsB[i].BurnedAtStart)
		if i < len(outsA) {
			led.op(sameOutcome(outsA[i], outsB[i]), fmt.Sprintf("traced epoch %d", i+1))
		}
	}
	genMetrics(ms, len(recsB), sentB, b.counter)

	ms.set("core.rounds", float64(rounds)/float64(len(recsA)), "rounds")
	ms.set("core.requests", float64(sent)/float64(len(recsA)), "requests")
	ms.set("core.accept_ratio", float64(accepted)/float64(sent), "accepted/sent")
	layerMetrics(ms, tb.rounds, len(tracedMs))
	// The plain replays against the untraced Runner times of the same
	// epochs.
	var plainPaired, runnerPaired []float64
	for k, i := range plainIdx {
		if i < len(runA) {
			plainPaired = append(plainPaired, plainMs[k])
			runnerPaired = append(runnerPaired, runA[i])
		}
	}
	ms.set("core.driver_over_runner", median(plainPaired)/median(runnerPaired), "ratio")
	regionMetrics(ms, reg, len(recsA))
	k := min(len(runA), len(runMs))
	base := median(runA[:k])
	ms.set("trace.overhead_pct", 100*(median(runMs[:k])-base)/base, "%")

	nb := float64(len(recsB))
	extra := newMetricSet()
	extra.set("churn.run_ms", mean(runMs), "ms/epoch")
	extra.set("churn.patch_ms", mean(patchMs), "ms/epoch")
	extra.set("churn.mutate_ms", mean(mutateMs), "ms/epoch")
	extra.set("churn.rewired", rewired/nb, "clients/epoch")
	extra.set("churn.burned_at_start", burnedAtStart/nb, "servers/epoch")
	extra.set("trace.untraced_run_ms_p50", base, "ms")
	extra.set("trace.traced_run_ms_p50", median(runMs[:k]), "ms")
	extra.set("trace.driver_plain_ms_p50", median(plainMs), "ms")
	extra.set("trace.driver_traced_ms_p50", median(tracedMs), "ms")

	notes := []string{fmt.Sprintf("traced run: %d untraced epochs, %d traced epochs (%d Driver replays traced, %d plain), each compared with the untraced result",
		len(recsA), len(recsB), len(tracedMs), len(plainMs))}
	if err := o.writeTrace("churn-epoch", log.spans, &notes); err != nil {
		return nil, err
	}
	return &outcome{
		metrics: orderPerLayer(ms), extra: extra, notes: notes,
		digest: digest(recsA, len(recsA)), digestN: len(recsA),
		knobs:     churnProtocol().ResolveKnobs(a.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}

func sameOutcome(want, got *churn.EpochOutcome) error {
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("outcomes differ:\n want %+v\n got  %+v", *want, *got)
	}
	return nil
}
