package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// Salts separating the seed families derived from the one --seed value.
const (
	saltGraph  = 0x6a09e667f3bcc908
	saltTrial  = 0xbb67ae8584caa73b
	saltWarm   = 0x3c6ef372fe94f82b
	saltEvent  = 0xa54ff53a5f1d36f1
	saltChurn  = 0x510e527fade682d1
	saltSchedr = 0x9b05688c2b3e6c1f
)

// derive returns the i-th seed of the family salt under the run seed.
// Every graph, trial, warm-up and churn-event seed comes from here, so
// one --seed value fixes every input of a run.
func derive(seed, salt uint64, i int) uint64 {
	st := seed ^ salt
	st += uint64(i) * 0x9e3779b97f4a7c15
	return rng.SplitMix64(&st)
}

// trialRec is one timed trial (or churn epoch) of a run.
type trialRec struct {
	dur      time.Duration
	steal    float64 // share of the machine's CPU time stolen during the trial
	rounds   int
	requests int64
	work     int64
	balls    int64 // balls placed
	maxLoad  int
}

func recFromResult(res *core.Result, dur time.Duration, steal float64) trialRec {
	return trialRec{
		dur:      dur,
		steal:    steal,
		rounds:   res.Rounds,
		requests: res.TotalRequests,
		work:     res.Work,
		balls:    res.TotalBalls - int64(res.UnassignedBalls),
		maxLoad:  res.MaxLoad,
	}
}

// checkResult asserts the per-trial invariants every run must meet:
// completion, the load cap ⌊c·d⌋ and Work = 2·TotalRequests.
func checkResult(res *core.Result) error {
	switch {
	case !res.Completed:
		return fmt.Errorf("trial did not complete: %d balls unassigned after %d rounds", res.UnassignedBalls, res.Rounds)
	case res.MaxLoad > res.LoadBound():
		return fmt.Errorf("max load %d exceeds the cap %d", res.MaxLoad, res.LoadBound())
	case res.Work != 2*res.TotalRequests:
		return fmt.Errorf("work %d != 2 x requests %d", res.Work, res.TotalRequests)
	}
	return nil
}

// ledger counts attempted and failed operations; a failure is printed
// to stderr with its reason.
type ledger struct {
	attempted, failed int
}

func (l *ledger) op(err error, what string) bool {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

// tailPercentile is the highest whole percentile that leaves at least
// ten samples beyond it (nearest rank), or 50 for ten samples or fewer.
func tailPercentile(n int) int {
	if n <= 10 {
		return 50
	}
	return 100 * (n - 10) / n
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) print(prefix string) {
	for _, n := range s.names {
		mt := s.m[n]
		fmt.Printf("%s%-26s %16s %s\n", prefix, n, strconv.FormatFloat(mt.Value, 'g', 8, 64), mt.Unit)
	}
}

// timed is one set-up: its wall time, the steal share during it and
// the CPU time it used.
type timed struct {
	dur   time.Duration
	steal float64
	cpu   time.Duration
}

// quiet returns the indexes of the samples whose steal share is at most
// the median share: the half (or more) of a run's samples that the
// hypervisor disturbed least.
func quiet(steal []float64) []int {
	med := median(steal)
	var idx []int
	for i, s := range steal {
		if s <= med {
			idx = append(idx, i)
		}
	}
	return idx
}

func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = xs[i]
	}
	return out
}

// e2e computes the end-to-end metrics of an untraced run: the gated
// set of the result line (BENCHMARK.json's end_to_end list) and the
// printed-only figures. The gated times are CPU times, which hypervisor
// steal does not inflate, rescaled to the nominal machine speed by the
// reference slices run among the set-ups (setupCal) and among the
// trials (loopCal); see calib.go. The raw CPU times and the wall-clock
// figures are printed, the latter over the quiet samples (see quiet)
// and over all of them. sessions is the number of trials that run at
// once, loopCPU the CPU time of the timed loop without its slices,
// prefix the deterministic trial prefix over which rounds_mean,
// work_per_ball and max_load are taken, roundUs the per-round latency
// samples in µs.
func e2e(setups []timed, setupCal *calibrator, recs []trialRec, sessions int, wall, loopCPU time.Duration, loopCal *calibrator, roundUs []float64, prefix int, rssMB float64) (gated, info *metricSet, note string) {
	gated, info = newMetricSet(), newMetricSet()
	setupS := make([]float64, len(setups))
	setupCPU := make([]float64, len(setups))
	setupSteal := make([]float64, len(setups))
	for i, t := range setups {
		setupS[i], setupCPU[i], setupSteal[i] = t.dur.Seconds(), t.cpu.Seconds(), t.steal
	}
	qs := quiet(setupSteal)
	cpuMs := durMs(loopCPU) / float64(len(recs))
	gated.set("setup_s", median(setupCPU)*setupCal.factor(), "s")
	gated.set("norm_cpu_ms_per_trial", cpuMs*loopCal.factor(), "ms")

	var balls, qBalls int64
	var qDur time.Duration
	trialMs := make([]float64, len(recs))
	trialSteal := make([]float64, len(recs))
	for i, r := range recs {
		balls += r.balls
		trialMs[i], trialSteal[i] = durMs(r.dur), r.steal
	}
	qt := quiet(trialSteal)
	for _, i := range qt {
		qBalls += recs[i].balls
		qDur += recs[i].dur
	}
	gated.set("peak_rss_mb", rssMB, "MB")

	p := recs[:min(prefix, len(recs))]
	var rounds, work, pb int64
	maxLoad := 0
	for _, r := range p {
		rounds += int64(r.rounds)
		work += r.work
		pb += r.balls
		maxLoad = max(maxLoad, r.maxLoad)
	}
	gated.set("rounds_mean", float64(rounds)/float64(len(p)), "rounds")
	gated.set("work_per_ball", float64(work)/float64(pb), "messages/ball")
	gated.set("max_load", float64(maxLoad), "balls")

	st := sortedCopy(trialMs)
	tp := tailPercentile(len(st))
	rs := sortedCopy(roundUs)
	info.set("cpu_ms_per_trial", cpuMs, "ms")
	info.set("setup_cpu_s", median(setupCPU), "s")
	info.set("env.speed_setup", setupCal.factor(), "x nominal")
	info.set("env.speed_loop", loopCal.factor(), "x nominal")
	info.set("balls_per_s", float64(sessions)*float64(qBalls)/qDur.Seconds(), "balls/s")
	info.set("trial_ms_p50", median(pick(trialMs, qt)), "ms")
	info.set("setup_wall_s", median(pick(setupS, qs)), "s")
	info.set("setup_wall_s_all", median(setupS), "s")
	info.set("balls_per_s_all", float64(balls)/wall.Seconds(), "balls/s")
	info.set("trial_ms_p50_all", percentile(st, 50), "ms")
	info.set("trial_ms_tail", percentile(st, float64(tp)), "ms")
	info.set("round_us_p50", percentile(rs, 50), "us")
	info.set("round_us_p99", percentile(rs, 99), "us")
	info.set("env.steal_pct_quiet", 100*mean(pick(trialSteal, qt)), "%")
	info.set("env.steal_pct_all", 100*mean(trialSteal), "%")
	note = fmt.Sprintf("%d setups (%d quiet); %d trials (%d quiet); trial_ms_tail is p%d of all trials; round_us_* over %d samples; deterministic prefix %d trials; %d+%d reference slices",
		len(setups), len(qs), len(st), len(qt), tp, len(rs), len(p), setupCal.slices, loopCal.slices)
	return gated, info, note
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// digest hashes the per-trial (rounds, requests, max load) of the
// deterministic prefix: two runs with equal digests computed the same
// random process.
func digest(recs []trialRec, prefix int) string {
	h := sha256.New()
	var b [24]byte
	for _, r := range recs[:min(prefix, len(recs))] {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.rounds))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.requests))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.maxLoad))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// statusKB reads a "Key:  N kB" line of a /proc/<pid>/status file.
func statusKB(pid string, key string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid string) float64 { return statusKB(pid, "VmHWM") / 1024 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is the user+system CPU time of process pid so far, from
// /proc/<pid>/stat, in clock ticks of 10 ms (USER_HZ is 100 on Linux).
func childCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(b), ") ")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// stealJiffies reads the machine-wide steal and total CPU jiffies from
// /proc/stat: time the hypervisor gave this guest's CPUs to others.
func stealJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMark is a /proc/stat reading taken when a timed interval starts.
type stealMark struct{ steal, total uint64 }

func markSteal() stealMark {
	s, t := stealJiffies()
	return stealMark{s, t}
}

// share is the share of the machine's CPU time the hypervisor stole
// since m.
func (m stealMark) share() float64 {
	s, t := stealJiffies()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// meter brackets a timed region: wall time, process CPU time and Go
// heap allocation.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
	// cal's slices run inside the region; calCPU0 and calWall0 are
	// their process CPU and wall time when it started.
	cal               *calibrator
	calCPU0, calWall0 time.Duration
}

// startMeter starts a region. cal (may be nil) is the calibrator whose
// slices run inside the region; stop takes their time out.
func startMeter(cal *calibrator) *meter {
	m := &meter{cal: cal}
	if cal != nil {
		m.calCPU0, m.calWall0 = cal.procCPU, cal.sliceWall
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

// region is what a meter measured.
type region struct {
	wall       time.Duration
	cpu        time.Duration // process user+system CPU time
	cpuShare   float64       // cpu ÷ (wall × GOMAXPROCS)
	allocBytes uint64
	allocs     uint64
}

// stop ends the region; wall and CPU time leave out the reference
// slices run in it.
func (m *meter) stop() region {
	r := region{wall: time.Since(m.t0)}
	r.cpu = cpuTime() - m.cpu0
	if m.cal != nil {
		r.wall -= m.cal.sliceWall - m.calWall0
		r.cpu -= m.cal.procCPU - m.calCPU0
	}
	cpu := r.cpu
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.cpuShare = cpu.Seconds() / (r.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	r.allocBytes, r.allocs = ms1.TotalAlloc-m.ms0.TotalAlloc, ms1.Mallocs-m.ms0.Mallocs
	return r
}

// regionMetrics sets the allocation and CPU figures of a timed
// region of trials trials.
func regionMetrics(ms *metricSet, r region, trials int) {
	t := float64(max(trials, 1))
	ms.set("core.alloc_bytes", float64(r.allocBytes)/t, "bytes/trial")
	ms.set("core.allocs", float64(r.allocs)/t, "allocs/trial")
	ms.set("core.cpu_per_wall", r.cpuShare, "fraction")
}

// Set-up repeats: at least minSetups, then more while the set-ups so far
// took less than setupBudget, up to maxSetups. setup_s is their median;
// cheap set-ups get more samples.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

func moreSetups(ds []timed) bool {
	var total time.Duration
	for _, d := range ds {
		total += d.dur
	}
	return len(ds) < minSetups || (len(ds) < maxSetups && total < setupBudget)
}
