// Command perfbench is the repository's benchmark: it drives the
// message-passing cluster through its public API on four seeded
// workloads, checks every run's output, and prints the end-to-end
// metrics (untraced runs) or the per-layer metrics (traced runs) as
// the last line of its standard output. See README.md in this
// directory for the workloads, the metrics and the comparison mode.
//
//	perfbench --workload cold-bfs --seed 1 --seconds 20 --trace 0
//	perfbench compare --base parent.jsonl --head change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// watchdog bounds a run: the contract is an exit within 180 s, so a run
// that wedges is killed well before that, without a result line.
const watchdog = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	out := fs.String("out", "", "append the run's full report as one JSON line to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s; aborting\n", watchdog)
		os.Exit(3)
	})

	r := newRun(*name, *seed, *seconds, *traced == 1)
	err := w.run(r)
	if err != nil {
		// An infrastructure error (a cluster that cannot be built, a
		// socket that cannot be bound) is not a measurement: no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep := r.report()
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, f := range r.gate.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	fmt.Printf("%s\n", line)
	res, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", res)
	if r.gate.specFailed {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func appendLine(path string, line []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outDir is where the benchmark writes what it leaves behind: the spans
// of traced runs and the CPU profiles, next to the binary run.sh built.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "perfbench-out")
}
