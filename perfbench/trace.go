package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// span is one timed interval of the traced run. Parent indexes the
// enclosing span in the same log (-1 for a root); spans of one trial
// share Trial.
type span struct {
	Name   string `json:"name"`
	Trial  int    `json:"trial"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog records spans in memory, relative to a shared origin. One log
// belongs to one goroutine; logs of concurrent sessions are merged when
// the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, trial, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{Name: name, Trial: trial, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

// mergeLogs concatenates logs, rebasing parent indexes.
func mergeLogs(logs ...*spanLog) []span {
	var out []span
	for _, l := range logs {
		base := len(out)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStat aggregates the spans of one name: total time and self time
// (span time minus the time its child spans cover).
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]*spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// writeTrace writes the spans and their per-name summary as JSON.
func writeTrace(path string, header map[string]any, spans []span) (map[string]*spanStat, error) {
	sum := summarize(spans)
	doc := map[string]any{"run": header, "summary": sum, "spans": spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return sum, err
	}
	return sum, os.WriteFile(path, b, 0o644)
}

// countingTopo forwards every bipartite.Topology call, and every
// optional interface the engines probe for, to the wrapped topology,
// counting the calls that reach it: point queries, regenerated rows and
// the entries those rows hold. Counters are striped by client block so
// the engine's workers, which walk disjoint client ranges, rarely share
// a cache line.
type countingTopo struct {
	inner   bipartite.Topology
	pq      bipartite.PointQueryable
	stripes [64]counterStripe
}

type counterStripe struct {
	points, rows, entries atomic.Int64
	_                     [40]byte
}

// countingVersioned adds bipartite.Versioned for wrapped topologies that
// implement it, so the engine's version-keyed caches behave as on the
// bare topology.
type countingVersioned struct {
	*countingTopo
	ver bipartite.Versioned
}

func (t *countingVersioned) TopologyVersion() uint64 { return t.ver.TopologyVersion() }

// wrapTopology returns the counting wrapper of inner and the counters.
func wrapTopology(inner bipartite.Topology) (bipartite.Topology, *countingTopo) {
	c := &countingTopo{inner: inner}
	c.pq, _ = inner.(bipartite.PointQueryable)
	if v, ok := inner.(bipartite.Versioned); ok {
		return &countingVersioned{countingTopo: c, ver: v}, c
	}
	return c, c
}

func (t *countingTopo) stripe(v int) *counterStripe { return &t.stripes[(v>>12)&63] }

func (t *countingTopo) NumClients() int        { return t.inner.NumClients() }
func (t *countingTopo) NumServers() int        { return t.inner.NumServers() }
func (t *countingTopo) ClientDegree(v int) int { return t.inner.ClientDegree(v) }
func (t *countingTopo) MaxClientDegree() int   { return t.inner.MaxClientDegree() }
func (t *countingTopo) Validate() error        { return t.inner.Validate() }

func (t *countingTopo) AppendClientNeighbors(v int, buf []int32) []int32 {
	n := len(buf)
	buf = t.inner.AppendClientNeighbors(v, buf)
	s := t.stripe(v)
	s.rows.Add(1)
	s.entries.Add(int64(len(buf) - n))
	return buf
}

func (t *countingTopo) CanPointQuery() bool { return t.pq != nil && t.pq.CanPointQuery() }

func (t *countingTopo) NeighborAt(v, i int) int32 {
	t.stripe(v).points.Add(1)
	return t.pq.NeighborAt(v, i)
}

func (t *countingTopo) DegreeStats() (bipartite.DegreeStats, bool) {
	if ds, ok := t.inner.(bipartite.DegreeStatser); ok {
		return ds.DegreeStats()
	}
	return bipartite.DegreeStats{}, false
}

// take returns the totals so far and resets them.
func (t *countingTopo) take() (points, rows, entries int64) {
	for i := range t.stripes {
		s := &t.stripes[i]
		points += s.points.Swap(0)
		rows += s.rows.Swap(0)
		entries += s.entries.Swap(0)
	}
	return
}

// roundRec is the phase split of one Driver round, taken from outside
// the engine: draw = round start → DecideRound entry, decide = the
// DecideRound call, update = DecideRound return → the round observer.
type roundRec struct {
	draw, decide, update time.Duration
	touched              int
	reqBytes, replyBytes int
	round                int
	tail                 bool
}

// tracedBank is a core.ServerBank wrapper that times each DecideRound
// call and, together with the Driver's round observer, splits every
// round into its draw, decide and update phases. With on == false it
// only forwards, so one Driver serves both the plain and the traced
// passes.
type tracedBank struct {
	inner   core.ServerBank
	windows [][2]int // shard windows for the computed frame sizes
	on      bool

	log                          *spanLog
	trial, trialSpan             int
	totalBalls                   int64
	roundStart, decStart, decEnd time.Time
	touched, accN, nbN           []int // per-window batch sizes of the pending round
	rounds                       []roundRec
}

func newTracedBank(inner core.ServerBank, windows [][2]int, log *spanLog) *tracedBank {
	k := len(windows)
	return &tracedBank{inner: inner, windows: windows, log: log,
		touched: make([]int, k), accN: make([]int, k), nbN: make([]int, k)}
}

func (b *tracedBank) Reset(initialLoads []int) error {
	err := b.inner.Reset(initialLoads)
	if b.on {
		now := time.Now()
		b.log.add("bank.reset", b.trial, b.trialSpan, b.roundStart, now)
		b.roundStart = now
	}
	return err
}

func (b *tracedBank) DecideRound(touched, counts []int32) (core.RoundDecision, error) {
	if !b.on {
		return b.inner.DecideRound(touched, counts)
	}
	b.decStart = time.Now()
	dec, err := b.inner.DecideRound(touched, counts)
	b.decEnd = time.Now()
	splitSorted(touched, b.windows, b.touched)
	splitSorted(dec.Accepted, b.windows, b.accN)
	splitSorted(dec.NewlyBurned, b.windows, b.nbN)
	return dec, err
}

func (b *tracedBank) Loads() ([]int32, error) { return b.inner.Loads() }
func (b *tracedBank) Close() error            { return b.inner.Close() }

// splitSorted writes into out the number of entries of the ascending
// list xs that fall into each window, by binary search.
func splitSorted(xs []int32, windows [][2]int, out []int) {
	from := 0
	for i, w := range windows {
		to := from + sort.Search(len(xs)-from, func(j int) bool { return int(xs[from+j]) >= w[1] })
		out[i] = to - from
		from = to
	}
}

// Frame layout of internal/wire protocol version 2: a 4-byte length
// prefix, a type byte and a 4-byte session id, then the payload. A round
// request carries the touched and counts arrays (4-byte count + 4 bytes
// per entry each); the reply carries the accepted and newly-burned
// arrays and a 4-byte saturated count.
const frameOverhead = 4 + 1 + 4

func (b *tracedBank) frameBytes() (req, reply int) {
	for i := range b.windows {
		if b.touched[i] == 0 {
			continue
		}
		req += frameOverhead + 2*(4+4*b.touched[i])
		reply += frameOverhead + 4 + 4*b.accN[i] + 4 + 4*b.nbN[i] + 4
	}
	return
}

// beginTrial opens trial i's span; the round clock starts now.
func (b *tracedBank) beginTrial(i int, totalBalls int64) {
	b.trial, b.totalBalls = i, totalBalls
	b.roundStart = time.Now()
	b.trialSpan = b.log.add("trial", i, -1, b.roundStart, b.roundStart)
}

func (b *tracedBank) endTrial() {
	b.log.spans[b.trialSpan].End = time.Since(b.log.t0).Nanoseconds()
}

// observe is the Driver's round observer: it closes the round and its
// three phase spans.
func (b *tracedBank) observe(round int, sent int64) {
	now := time.Now()
	r := b.log.add("round", b.trial, b.trialSpan, b.roundStart, now)
	b.log.add("core.draw", b.trial, r, b.roundStart, b.decStart)
	b.log.add("bank.decide", b.trial, r, b.decStart, b.decEnd)
	b.log.add("core.update", b.trial, r, b.decEnd, now)
	rec := roundRec{
		draw:   b.decStart.Sub(b.roundStart),
		decide: b.decEnd.Sub(b.decStart),
		update: now.Sub(b.decEnd),
		round:  round,
		// Every alive ball sends one request per round, so sent is the
		// alive count at the round's start.
		tail: 4*sent < b.totalBalls,
	}
	for _, k := range b.touched {
		rec.touched += k
	}
	rec.reqBytes, rec.replyBytes = b.frameBytes()
	b.rounds = append(b.rounds, rec)
	b.roundStart = now
}

// layerMetrics fills the Driver-path per-layer metrics from the rounds
// of the traced Driver trials.
func layerMetrics(ms *metricSet, rounds []roundRec, trials int) {
	var draw, decide, update, round1, tail time.Duration
	var touched, req, reply int64
	callUs := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		draw += r.draw
		decide += r.decide
		update += r.update
		if r.round == 1 {
			round1 += r.draw + r.decide + r.update
		}
		if r.tail {
			tail += r.draw + r.decide + r.update
		}
		touched += int64(r.touched)
		req += int64(r.reqBytes)
		reply += int64(r.replyBytes)
		callUs = append(callUs, durUs(r.decide))
	}
	t := float64(max(trials, 1))
	n := float64(max(len(rounds), 1))
	ms.set("core.draw_ms", durMs(draw)/t, "ms")
	ms.set("core.update_ms", durMs(update)/t, "ms")
	ms.set("core.round1_ms", durMs(round1)/t, "ms")
	ms.set("core.tail_ms", durMs(tail)/t, "ms")
	ms.set("core.touched_per_round", float64(touched)/n, "servers")
	ms.set("bank.decide_ms", durMs(decide)/t, "ms")
	ms.set("bank.decide_ns_per_touched", float64(decide.Nanoseconds())/float64(max(touched, 1)), "ns")
	slices.Sort(callUs)
	ms.set("bank.call_us_p50", percentile(callUs, 50), "us")
	ms.set("bank.call_us_p99", percentile(callUs, 99), "us")
	ms.set("wire.req_bytes", float64(req)/n, "bytes/round")
	ms.set("wire.reply_bytes", float64(reply)/n, "bytes/round")
	ms.set("wire.client_share", (draw+update).Seconds()/(draw+decide+update).Seconds(), "fraction")
}

// genMetrics fills the gen-layer counters per trial from the counting
// topologies the trials read. requests is the number of requests the
// counted trials sent.
func genMetrics(ms *metricSet, trials int, requests int64, counters ...*countingTopo) {
	var points, rows, entries int64
	for _, c := range counters {
		p, r, e := c.take()
		points, rows, entries = points+p, rows+r, entries+e
	}
	t := float64(max(trials, 1))
	ms.set("gen.point_queries", float64(points)/t, "calls")
	ms.set("gen.row_regens", float64(rows)/t, "calls")
	ms.set("gen.row_entries", float64(entries)/t, "entries")
	ms.set("gen.draw_yield", float64(requests)/float64(max(points+entries, 1)), "requests/entry")
}

// perLayerNames is the order of the per-layer metrics in the result
// line; it matches the per_layer list of BENCHMARK.json.
var perLayerNames = []string{
	"gen.build_s", "gen.point_queries", "gen.row_regens", "gen.row_entries", "gen.draw_yield",
	"core.rounds", "core.requests", "core.accept_ratio", "core.draw_ms", "core.update_ms",
	"core.round1_ms", "core.tail_ms", "core.touched_per_round", "core.driver_over_runner",
	"core.alloc_bytes", "core.allocs", "core.cpu_per_wall",
	"bank.decide_ms", "bank.decide_ns_per_touched", "bank.call_us_p50", "bank.call_us_p99",
	"wire.req_bytes", "wire.reply_bytes", "wire.client_share",
	"trace.overhead_pct",
}

// orderPerLayer reorders ms to perLayerNames; a name the run did not
// set is a bug in the benchmark and panics.
func orderPerLayer(ms *metricSet) *metricSet {
	if len(ms.names) != len(perLayerNames) {
		panic(fmt.Sprintf("perfbench: %d per-layer metrics set, want %d: %v", len(ms.names), len(perLayerNames), ms.names))
	}
	for _, n := range perLayerNames {
		if _, ok := ms.m[n]; !ok {
			panic("perfbench: per-layer metric not set: " + n)
		}
	}
	ms.names = slices.Clone(perLayerNames)
	return ms
}

// writeTrace writes the run's spans next to its result file and notes
// the per-name self times.
func (o runOpts) writeTrace(workload string, spans []span, notes *[]string) error {
	if o.results == "" {
		return nil
	}
	path := filepath.Join(o.results, fmt.Sprintf("%s-seed%d.trace.json", workload, o.seed))
	sum, err := writeTrace(path, map[string]any{"workload": workload, "seed": o.seed}, spans)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		s := sum[n]
		*notes = append(*notes, fmt.Sprintf("span %-14s count=%-6d total_ms=%-12.3f self_ms=%.3f", n, s.Count, s.TotalMs, s.SelfMs))
	}
	*notes = append(*notes, "spans written to "+path)
	return nil
}
