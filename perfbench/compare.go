package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Pairs                      int
	BaseMedian, BaseQ1, BaseQ3 float64
	HeadMedian, HeadQ1, HeadQ3 float64
	Wins                       int     // pairs the change won
	Change                     float64 // head/base − 1, positive = worse
	Verdict                    string
}

// compareMain compares two result sets — files of report lines written
// with --out, one for the parent commit and one for the change — by the
// rule the benchmark is judged by:
//
//   - a gain needs at least 10 pairs, the change winning at least 9 in
//     10 of them (ties count for neither), and a median gap larger than
//     the parent's interquartile spread;
//   - every other metric must not be worse than the parent's median by
//     more than its bound from BENCHMARK.json; where the parent's own
//     spread exceeds the bound the metric is "unresolved", unless every
//     run of the change beats every run of the parent.
//
// Pairs are formed in start order; the report says whether the order
// within pairs alternated, as the rule asks. It exits 1 when some
// metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "report lines of the parent commit")
	headPath := fs.String("head", "", "report lines of the change")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare --base parent.jsonl --head change.jsonl [--bench BENCHMARK.json]")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", *specPath, err)
		return 2
	}
	base, err := loadReports(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	head, err := loadReports(*headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var names []string
	for w := range base {
		if _, ok := head[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressed := false
	for _, w := range names {
		b, h := base[w], head[w]
		pairs := min(len(b), len(h))
		alternating := alternates(b[:pairs], h[:pairs])
		fmt.Printf("%s: %d pairs, order alternating: %v\n", w, pairs, alternating)
		fmt.Printf("  %-26s %-32s %-32s %8s %6s  %s\n", "metric", "base p50 [q1 q3]", "head p50 [q1 q3]", "change", "wins", "verdict")
		for _, m := range spec.EndToEnd {
			v := compareMetric(m.Name, m.Better == "higher", m.Bound, b[:pairs], h[:pairs])
			if v.Verdict == "regressed" {
				regressed = true
			}
			fmt.Printf("  %-26s %-32s %-32s %+7.1f%% %3d/%-2d  %s\n", m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", v.BaseMedian, v.BaseQ1, v.BaseQ3),
				fmt.Sprintf("%.4g [%.4g %.4g]", v.HeadMedian, v.HeadQ1, v.HeadQ3),
				100*v.Change, v.Wins, v.Pairs, v.Verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// loadReports reads report lines and groups the untraced, correct runs
// by workload in start order.
func loadReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if rep.Traced || !rep.Result.Correct {
			continue
		}
		out[rep.Workload] = append(out[rep.Workload], rep)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].StartedUnixNS < rs[j].StartedUnixNS })
	}
	return out, nil
}

// alternates reports whether the side that ran first switched from
// each pair to the next.
func alternates(b, h []report) bool {
	for i := 1; i < len(b); i++ {
		prev := b[i-1].StartedUnixNS < h[i-1].StartedUnixNS
		cur := b[i].StartedUnixNS < h[i].StartedUnixNS
		if prev == cur {
			return false
		}
	}
	return true
}

func compareMetric(name string, higher bool, bound float64, b, h []report) verdict {
	v := verdict{Pairs: len(b)}
	var bv, hv []float64
	for i := range b {
		x, y := b[i].Result.Metrics[name].Value, h[i].Result.Metrics[name].Value
		bv, hv = append(bv, x), append(hv, y)
		if (higher && y > x) || (!higher && y < x) {
			v.Wins++
		}
	}
	v.BaseMedian, v.HeadMedian = median(bv), median(hv)
	v.BaseQ1, v.BaseQ3 = quartiles(bv)
	v.HeadQ1, v.HeadQ3 = quartiles(hv)
	if v.BaseMedian != 0 {
		v.Change = v.HeadMedian/v.BaseMedian - 1
		if higher {
			v.Change = -v.Change
		}
	}
	better := v.Change < 0
	allBetter := len(bv) > 0
	for _, x := range bv {
		for _, y := range hv {
			if (higher && y <= x) || (!higher && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case len(b) < 10:
		v.Verdict = "too few pairs (need 10)"
	case better && 10*v.Wins >= 9*v.Pairs && math.Abs(v.HeadMedian-v.BaseMedian) > v.BaseQ3-v.BaseQ1:
		v.Verdict = "gain"
	case spread(bv) > bound && !allBetter:
		v.Verdict = "unresolved (parent spread above bound)"
	case v.Change > bound:
		v.Verdict = "regressed"
	default:
		v.Verdict = "within bound"
	}
	return v
}
