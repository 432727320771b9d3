package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchDef is the part of BENCHMARK.json the compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runFile is one untraced run's result file.
type runFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    int               `json:"trace"`
	Digest   string            `json:"digest"`
	Correct  bool              `json:"correct"`
	Env      envInfo           `json:"env"`
	Knobs    json.RawMessage   `json:"knobs"`
	Metrics  map[string]metric `json:"metrics"`
}

// loadRuns reads the untraced result files of dir, by workload and seed.
func loadRuns(dir string) (map[string]map[uint64]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced result files (*-trace0.json) in %s", dir)
	}
	out := map[string]map[uint64]runFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[uint64]runFile{}
		}
		out[rf.Workload][rf.Seed] = rf
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method); it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compare prints, per workload and end-to-end metric, both sides'
// median and quartiles and a verdict: "improved" when B wins at least 9
// in 10 seed-paired runs and the medians differ by more than A's interquartile distance; "no worse"
// when B's median is within the metric's bound of A's; "worse" when it
// is beyond the bound and A's own spread is within it; otherwise
// "unresolved". It returns false when any pair is worse or a digest
// differs.
func compare(benchPath, dirA, dirB string) (bool, error) {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	runsA, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	runsB, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	var workloadNames []string
	for w := range runsA {
		if runsB[w] != nil {
			workloadNames = append(workloadNames, w)
		}
	}
	slices.Sort(workloadNames)
	for _, w := range workloadNames {
		a, bb := runsA[w], runsB[w]
		var seeds []uint64
		for s := range a {
			if _, in := bb[s]; in {
				seeds = append(seeds, s)
			}
		}
		slices.Sort(seeds)
		fmt.Printf("== %s: %d runs in A, %d in B, %d paired by seed\n", w, len(a), len(bb), len(seeds))
		for _, s := range seeds {
			if a[s].Digest != bb[s].Digest {
				fmt.Printf("   DIGEST MISMATCH seed %d: %s vs %s (the random process changed)\n", s, a[s].Digest, bb[s].Digest)
				ok = false
			}
			if string(a[s].Knobs) != string(bb[s].Knobs) {
				fmt.Printf("   knobs differ on seed %d: %s vs %s\n", s, a[s].Knobs, bb[s].Knobs)
			}
			if !a[s].Correct || !bb[s].Correct {
				fmt.Printf("   seed %d: a run reported correct=false\n", s)
				ok = false
			}
		}
		fmt.Printf("   %-21s %-12s %12s %12s %12s | %12s %12s %12s | %7s %6s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "A sprd", "B wins", "verdict")
		for _, e := range def.EndToEnd {
			var va, vb []float64
			for _, r := range a {
				va = append(va, r.Metrics[e.Name].Value)
			}
			for _, r := range bb {
				vb = append(vb, r.Metrics[e.Name].Value)
			}
			wins, decided := 0, 0
			for _, s := range seeds {
				x, y := a[s].Metrics[e.Name].Value, bb[s].Metrics[e.Name].Value
				if x == y {
					continue
				}
				decided++
				if (e.Better == "lower") == (y < x) {
					wins++
				}
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spread := (a3 - a1) / math.Abs(am)
			worse := (bm - am) / math.Abs(am) // share by which B is worse
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "unresolved"
			switch {
			case len(seeds) > 0 && wins*10 >= 9*len(seeds) && math.Abs(bm-am) > a3-a1 && worse < 0:
				verdict = "improved"
			case worse <= e.Bound && spread <= e.Bound:
				verdict = "no worse than bound"
			case worse > e.Bound && spread <= e.Bound:
				verdict = "WORSE"
				ok = false
			}
			fmt.Printf("   %-21s %-12s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %6.3f %3d/%-3d %s (bound %g, B %+.2f%%)\n",
				e.Name, e.Unit, a1, am, a3, b1, bm, b3, spread, wins, decided, verdict, e.Bound, 100*worse)
		}
	}
	if len(workloadNames) == 0 {
		return false, fmt.Errorf("no workload has results on both sides")
	}
	fmt.Println(strings.Repeat("-", 40))
	if ok {
		fmt.Println("compare: no regression beyond the bounds, digests equal")
	} else {
		fmt.Println("compare: FAILED (a regression beyond a bound, a digest mismatch or an incorrect run)")
	}
	return ok, nil
}
