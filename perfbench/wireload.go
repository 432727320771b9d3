package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/wire"
)

// wire-loopback: a saer-server child process with two shards on
// 127.0.0.1, dialed with two sessions, each driven by one core.Driver
// (Workers 1) in a closed loop.
const (
	wireN        = 1 << 16
	wireDelta    = 256
	wireSessions = 2
	wirePrefix   = 120
)

func wireConfig() core.Config {
	cfg := core.NewConfig(core.SAER, 2, 2, 0)
	cfg.Workers = 1
	return cfg
}

// serverProc is the saer-server child process.
type serverProc struct {
	cmd   *exec.Cmd
	addrs []string
}

// readyWriter collects the server's stdout and reports the shard
// addresses once the "ready" line arrives.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan []string
	sent  bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.sent {
		return len(p), nil
	}
	var addrs []string
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if _, addr, ok := strings.Cut(line, " listening on "); ok {
			addrs = append(addrs, strings.TrimSpace(addr))
		}
		if strings.TrimSpace(line) == "ready" {
			w.sent = true
			w.ready <- addrs
			break
		}
	}
	return len(p), nil
}

func startServer(bin string) (*serverProc, error) {
	if bin == "" {
		return nil, errors.New("wire-loopback needs -server-bin")
	}
	w := &readyWriter{ready: make(chan []string, 1)}
	cmd := exec.Command(bin, "-shards", strconv.Itoa(bankShards))
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting saer-server: %w", err)
	}
	sp := &serverProc{cmd: cmd}
	select {
	case sp.addrs = <-w.ready:
	case <-time.After(30 * time.Second):
		sp.stop()
		return nil, errors.New("saer-server did not report ready within 30s")
	}
	if len(sp.addrs) != bankShards {
		sp.stop()
		return nil, fmt.Errorf("saer-server reported %d shard addresses, want %d", len(sp.addrs), bankShards)
	}
	return sp, nil
}

// cpu is the server's user+system CPU time so far.
func (sp *serverProc) cpu() time.Duration { return childCPU(sp.cmd.Process.Pid) }

// peakRSSMB is the server's resident-set high-water mark.
func (sp *serverProc) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(sp.cmd.Process.Pid)) }

// stop terminates the server and waits for it to exit.
func (sp *serverProc) stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reaps it
	done := make(chan struct{})
	go func() {
		_ = sp.cmd.Wait() // the exit status of a terminated server carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-done
	}
}

type wireInst struct {
	srv      *serverProc
	bank     *wire.Bank
	topo     bipartite.Topology
	drs      []*core.Driver
	buildDur time.Duration
}

func (wi *wireInst) close() {
	if wi.bank != nil {
		_ = wi.bank.Close() // closing the connections cannot fail in a way that matters at teardown
	}
	if wi.srv != nil {
		wi.srv.stop()
	}
}

// setupWire starts the server, builds the topology, dials and runs one
// untimed warm-up trial per session.
func setupWire(o runOpts, led *ledger) (*wireInst, time.Duration, error) {
	t0 := time.Now()
	wi := &wireInst{}
	srv, err := startServer(o.serverBin)
	if err != nil {
		return nil, 0, err
	}
	wi.srv = srv
	tb := time.Now()
	topo, err := gen.RegularImplicit(wireN, wireDelta, derive(o.seed, saltGraph, 0))
	if err != nil {
		wi.close()
		return nil, 0, err
	}
	wi.topo, wi.buildDur = topo, time.Since(tb)
	cfg := wireConfig()
	bank, err := wire.DialConfig(srv.addrs, cfg.Variant, int32(cfg.Params().Capacity()), wireN, wire.BankConfig{Sessions: wireSessions})
	if err != nil {
		wi.close()
		return nil, 0, fmt.Errorf("dialing saer-server: %w", err)
	}
	wi.bank = bank
	for s := range wireSessions {
		dr, err := core.NewDriver(topo, cfg, bank.Session(s))
		if err != nil {
			wi.close()
			return nil, 0, err
		}
		dr.Reseed(derive(o.seed, saltWarm, s))
		res, err := dr.Run()
		if led.op(err, fmt.Sprintf("warm-up trial on session %d", s)) {
			led.op(checkResult(res), fmt.Sprintf("warm-up trial on session %d", s))
		}
		wi.drs = append(wi.drs, dr)
	}
	return wi, time.Since(t0), nil
}

// loopResult is what a closed loop over the sessions produced.
type loopResult struct {
	recs    []trialRec
	results []*core.Result
	roundUs []float64
	wall    time.Duration
}

// add appends a later segment of the same loop.
func (lr *loopResult) add(seg loopResult) {
	lr.recs = append(lr.recs, seg.recs...)
	lr.results = append(lr.results, seg.results...)
	lr.roundUs = append(lr.roundUs, seg.roundUs...)
	lr.wall += seg.wall
}

// closedLoop runs trials from, from+1, ... on the Drivers, one
// goroutine per Driver: a session starts its next trial only when its
// previous one returned. It stops claiming trials once dur has passed
// and at least minTrials were claimed. before/after hook each trial
// (may be nil).
func closedLoop(drs []*core.Driver, seed uint64, from, minTrials int, dur time.Duration, led *ledger,
	before func(s, i int), after func(s, i int)) loopResult {
	t0 := time.Now()
	// Claims and the stop decision share a lock, so the trials that run
	// are exactly the indices claimed before the stop: a prefix.
	var mu sync.Mutex
	claimed, stopped := from, false
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (claimed-from >= minTrials && time.Since(t0) >= dur) {
			stopped = true
			return 0, false
		}
		claimed++
		return claimed - 1, true
	}
	type item struct {
		i   int
		rec trialRec
		res *core.Result
		err error
	}
	perSession := make([][]item, len(drs))
	roundUs := make([][]float64, len(drs))
	var wg sync.WaitGroup
	for s, dr := range drs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Time
			// An untraced loop times its rounds here; a traced loop's
			// Drivers already carry the timing bank's observer.
			if before == nil {
				dr.SetObserver(func(int, int64) {
					now := time.Now()
					roundUs[s] = append(roundUs[s], durUs(now.Sub(last)))
					last = now
				})
			}
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if before != nil {
					before(s, i)
				}
				sm := markSteal()
				ts := time.Now()
				last = ts
				dr.Reseed(derive(seed, saltTrial, i))
				res, err := dr.Run()
				d := time.Since(ts)
				steal := sm.share()
				if after != nil {
					after(s, i)
				}
				it := item{i: i, err: err, res: res}
				if err == nil {
					it.rec = recFromResult(res, d, steal)
				}
				perSession[s] = append(perSession[s], it)
			}
		}()
	}
	wg.Wait()
	lr := loopResult{wall: time.Since(t0)}
	// The runs form the range from..k-1; lay them out by index.
	var all []item
	for s := range drs {
		all = append(all, perSession[s]...)
		lr.roundUs = append(lr.roundUs, roundUs[s]...)
	}
	lr.recs = make([]trialRec, len(all))
	lr.results = make([]*core.Result, len(all))
	for _, it := range all {
		what := fmt.Sprintf("wire trial %d", it.i)
		if led.op(it.err, what) {
			led.op(checkResult(it.res), what)
		}
		lr.recs[it.i-from], lr.results[it.i-from] = it.rec, it.res
	}
	return lr
}

func runWireLoopback(o runOpts, traced bool) (*outcome, error) {
	led := &ledger{}
	if traced {
		return runWireTraced(o, led)
	}
	var wi *wireInst
	var setups []timed
	setupCal := newCalibrator()
	for moreSetups(setups) {
		if wi != nil {
			wi.close()
		}
		runtime.GC()
		sm, c0 := markSteal(), cpuTime()
		in, d, err := setupWire(o, led)
		if err != nil {
			return nil, err
		}
		cpu := cpuTime() - c0 + in.srv.cpu()
		wi, setups = in, append(setups, timed{d, sm.share(), cpu})
		setupCal.slice()
	}
	defer wi.close()
	runtime.GC()
	// The closed loop runs in segments of calEvery with a reference
	// slice between them, while both sessions are idle.
	cal := newCalibrator()
	cal.slice()
	srvCPU0 := wi.srv.cpu()
	m := startMeter(cal)
	var lr loopResult
	for len(lr.recs) < wirePrefix || lr.wall < o.dur {
		lr.add(closedLoop(wi.drs, o.seed, len(lr.recs), 1, calEvery, led, nil, nil))
		cal.slice()
	}
	reg := m.stop()
	srvCPU := wi.srv.cpu() - srvCPU0
	serverRSS := wi.srv.peakRSSMB()
	rss := peakRSSMB("self") + serverRSS
	ms, extra, note := e2e(setups, setupCal, lr.recs, wireSessions, lr.wall, reg.cpu+srvCPU, cal, lr.roundUs, wirePrefix, rss)

	// Check pass: replay sampled trials on session 0 (untimed) with a
	// load-sum check, and in-process with core.Run, as saer-client
	// -verify does; both must equal the timed loop's results.
	sample := []int{0, 1, len(lr.results) - 1}
	cfg := wireConfig()
	for _, i := range sample {
		what := fmt.Sprintf("check of wire trial %d", i)
		if lr.results[i] == nil {
			continue // already counted as failed
		}
		dr := wi.drs[0]
		dr.SetObserver(nil)
		dr.Reseed(derive(o.seed, saltTrial, i))
		res, err := dr.Run()
		if led.op(err, what+" (replay)") {
			led.op(sameResult(lr.results[i], res), what+" (replay)")
			led.op(loadSum(wi.bank.Session(0), 0, res), what+" (load sum)")
		}
		c := cfg
		c.Seed = derive(o.seed, saltTrial, i)
		ref, err := c.Run(wi.topo)
		if led.op(err, what+" (in-process core.Run)") {
			led.op(sameResult(ref, lr.results[i]), what+" (wire vs in-process)")
		}
	}

	extra.set("wire.server_peak_rss_mb", serverRSS, "MB")
	regionMetrics(extra, reg, len(lr.recs))
	return &outcome{
		metrics: ms, extra: extra,
		notes: []string{note,
			fmt.Sprintf("closed loop: %d sessions x 1 Driver (Workers=1), saer-server -shards %d on loopback; round 1 includes the session Reset", wireSessions, bankShards),
			fmt.Sprintf("check pass: trials %v replayed on session 0 and with in-process core.Run", sample)},
		digest: digest(lr.recs, wirePrefix), digestN: wirePrefix,
		knobs:     cfg.ResolveKnobs(wi.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}

// runWireTraced: an untraced closed loop, then a traced closed loop
// over timing banks and counting topologies, then a Driver/Runner
// comparison on session 0 alone.
func runWireTraced(o runOpts, led *ledger) (*outcome, error) {
	wi, _, err := setupWire(o, led)
	if err != nil {
		return nil, err
	}
	defer wi.close()
	cfg := wireConfig()
	ms := newMetricSet()
	ms.set("gen.build_s", wi.buildDur.Seconds(), "s")
	runtime.GC()

	// (a) Untraced closed loop.
	m := startMeter(nil)
	plain := closedLoop(wi.drs, o.seed, 0, 2*wireSessions, o.dur/3, led, nil, nil)
	reg := m.stop()

	// (b) Traced closed loop: one counting topology and one timing bank
	// per session.
	windows, err := wire.SplitWindows(wireN, bankShards)
	if err != nil {
		return nil, err
	}
	logs := make([]*spanLog, wireSessions)
	banks := make([]*tracedBank, wireSessions)
	counters := make([]*countingTopo, wireSessions)
	var tracedDrs []*core.Driver
	t0 := time.Now()
	for s := range wireSessions {
		logs[s] = &spanLog{t0: t0}
		banks[s] = newTracedBank(wi.bank.Session(s), windows, logs[s])
		banks[s].on = true
		var wt bipartite.Topology
		wt, counters[s] = wrapTopology(wi.topo)
		dr, err := core.NewDriver(wt, cfg, banks[s])
		if err != nil {
			return nil, err
		}
		dr.SetObserver(banks[s].observe)
		tracedDrs = append(tracedDrs, dr)
	}
	rep0, err := wi.bank.Reports()
	if !led.op(err, "server reports") {
		return nil, err
	}
	balls := int64(wireN * cfg.D)
	tracedLoop := closedLoop(tracedDrs, o.seed, 0, 2*wireSessions, o.dur/3, led,
		func(s, i int) { banks[s].beginTrial(i, balls) },
		func(s, _ int) { banks[s].endTrial() })
	rep1, err := wi.bank.Reports()
	if !led.op(err, "server reports") {
		return nil, err
	}
	for i, res := range tracedLoop.results {
		if i < len(plain.results) && res != nil && plain.results[i] != nil {
			led.op(sameResult(plain.results[i], res), fmt.Sprintf("traced wire trial %d", i))
		}
	}

	// (c) Driver over the wire vs the in-process Runner, one trial at a
	// time on session 0, same seeds.
	runner, err := cfg.NewRunner(wi.topo)
	if err != nil {
		return nil, err
	}
	var wireMs, runnerMs []float64
	dr := wi.drs[0]
	dr.SetObserver(nil)
	deadline := time.Now().Add(o.dur / 3)
	for j := 0; j < len(plain.results) && (j < 5 || time.Now().Before(deadline)); j++ {
		dr.Reseed(derive(o.seed, saltTrial, j))
		ts := time.Now()
		res, err := dr.Run()
		wireMs = append(wireMs, durMs(time.Since(ts)))
		if led.op(err, fmt.Sprintf("wire trial %d alone", j)) {
			led.op(sameResult(plain.results[j], res), fmt.Sprintf("wire trial %d alone", j))
		}
		runner.Reseed(derive(o.seed, saltTrial, j))
		ts = time.Now()
		ref := runner.Run()
		runnerMs = append(runnerMs, durMs(time.Since(ts)))
		led.op(sameResult(plain.results[j], ref), fmt.Sprintf("in-process Runner trial %d", j))
	}

	var sent, accepted int64
	var rounds int
	for _, rc := range plain.recs {
		sent += rc.requests
		accepted += rc.balls
		rounds += rc.rounds
	}
	var allRounds []roundRec
	var tracedSent int64
	for s := range wireSessions {
		allRounds = append(allRounds, banks[s].rounds...)
	}
	for _, rc := range tracedLoop.recs {
		tracedSent += rc.requests
	}
	genMetrics(ms, len(tracedLoop.recs), tracedSent, counters...)
	ms.set("core.rounds", float64(rounds)/float64(len(plain.recs)), "rounds")
	ms.set("core.requests", float64(sent)/float64(len(plain.recs)), "requests")
	ms.set("core.accept_ratio", float64(accepted)/float64(sent), "accepted/sent")
	layerMetrics(ms, allRounds, len(tracedLoop.recs))
	ms.set("core.driver_over_runner", median(wireMs)/median(runnerMs), "ratio")
	regionMetrics(ms, reg, len(plain.recs))
	plainP50 := trialP50(plain.recs)
	tracedP50 := trialP50(tracedLoop.recs)
	ms.set("trace.overhead_pct", 100*(tracedP50-plainP50)/plainP50, "%")

	// Wire-only figures: the server's decide time from its reports, the
	// network share, the RTT distribution and the server's memory.
	var decideNs, srvRounds uint64
	for i := range rep1 {
		decideNs += rep1[i].DecideNanos - rep0[i].DecideNanos
		srvRounds += rep1[i].Rounds - rep0[i].Rounds
	}
	var rttSum time.Duration
	rtt := make([]float64, 0, len(allRounds))
	for _, r := range allRounds {
		rttSum += r.decide
		rtt = append(rtt, durUs(r.decide))
	}
	clientRounds := float64(max(len(allRounds), 1))
	serverPerRound := float64(decideNs) / 1e3 / clientRounds
	extra := newMetricSet()
	extra.set("wire.rtt_us_p50", median(rtt), "us")
	extra.set("wire.rtt_us_p99", percentile(sortedCopy(rtt), 99), "us")
	extra.set("wire.server_decide_us", serverPerRound, "us/round (all shards)")
	extra.set("wire.net_us", durUs(rttSum)/clientRounds-serverPerRound, "us/round (mean RTT - server decide)")
	extra.set("wire.server_shard_frames", float64(srvRounds), "frames")
	extra.set("wire.server_peak_rss_mb", wi.srv.peakRSSMB(), "MB")
	extra.set("trace.untraced_trial_ms_p50", plainP50, "ms")
	extra.set("trace.traced_trial_ms_p50", tracedP50, "ms")
	extra.set("trace.untraced_round_us_p50", median(plain.roundUs), "us")

	notes := []string{fmt.Sprintf("traced run: %d untraced and %d traced closed-loop trials, %d single-session wire/Runner pairs, each compared with the untraced result",
		len(plain.recs), len(tracedLoop.recs), len(wireMs))}
	if err := o.writeTrace("wire-loopback", mergeLogs(logs...), &notes); err != nil {
		return nil, err
	}
	return &outcome{
		metrics: orderPerLayer(ms), extra: extra, notes: notes,
		digest: digest(plain.recs, len(plain.recs)), digestN: len(plain.recs),
		knobs:     cfg.ResolveKnobs(wi.topo),
		attempted: led.attempted, failed: led.failed,
	}, nil
}

func trialP50(recs []trialRec) float64 {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = durMs(r.dur)
	}
	return median(ms)
}
