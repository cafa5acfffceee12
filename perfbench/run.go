package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics an untraced run prints, with
// their units. Every workload reports every one of them (see README.md
// for how each is measured on each workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"converge_cpu_s", "s"},
	{"converge_ticks", "count"},
	{"idle_tick_cpu_ms_p50", "ms"},
	{"idle_tick_cpu_ms_tail", "ms"},
	{"idle_wire_B_per_node_tick", "B"},
	{"peak_heap_mb", "MB"},
}

// e2e accumulates the samples behind the end-to-end metrics.
type e2e struct {
	setups               []setupTime
	convWall, convCPU    []float64
	convTicks, stabTicks []float64
	idleWall, idleCPU    []float64
	// Idle wire bytes and node-ticks summed over every idle window: the
	// keep-alive and anchor cadences are phase-locked across nodes, so a
	// single window's rate depends on where it starts, and the sum over
	// all windows spans more of the cycle.
	idleBytes, idleNodeTicks float64
	idleWindows              int
	flapTicks, flaps         int
}

// setupTime is one build's process CPU time and wall time, in seconds.
type setupTime struct{ cpu, wall float64 }

// measureSetup times one build under a "setup" span. It collects
// garbage first, so a build does not pay for the previous phase's heap.
func measureSetup(r *run, build func()) setupTime {
	settle()
	c0 := cpuSeconds()
	wall := r.sp.timed("setup", build).Seconds()
	return setupTime{cpu: cpuSeconds() - c0, wall: wall}
}

func (s *e2e) converged(c convergeResult) {
	s.convWall = append(s.convWall, c.seconds)
	s.convCPU = append(s.convCPU, c.cpuSeconds)
	s.convTicks = append(s.convTicks, float64(c.ticks))
	s.stabTicks = append(s.stabTicks, float64(c.stabilizeTicks))
}

func (s *e2e) idled(i idleResult) {
	s.idleWall = append(s.idleWall, i.tickMS...)
	s.idleCPU = append(s.idleCPU, i.tickCPU...)
	s.idleBytes += i.bytes
	s.idleNodeTicks += i.nodeTicks
	s.idleWindows++
	s.flapTicks += i.flapTicks
	s.flaps += i.flaps
}

// record sets the end-to-end metrics from the run's samples. Timings
// are process CPU time: on a shared 2-vCPU host, wall time follows the
// host's stolen time (a lockstep barrier waits for the slowest vCPU),
// and runs at one seed differed by up to 30% with 1-13% of the machine
// stolen. The wall-clock figures go into the report line beside them.
func (r *run) record(s *e2e, heap *heapSampler) {
	var setupCPU, setupWall []float64
	for _, st := range s.setups {
		setupCPU, setupWall = append(setupCPU, st.cpu), append(setupWall, st.wall)
	}
	r.set("setup_s", median(setupCPU), len(setupCPU))
	r.extra["setup_wall_s"] = median(setupWall)
	r.set("converge_cpu_s", median(s.convCPU), len(s.convCPU))
	r.set("converge_ticks", median(s.convTicks), len(s.convTicks))
	r.timing("idle_tick_cpu_ms", s.idleCPU)
	r.set("idle_wire_B_per_node_tick", ratio(s.idleBytes, s.idleNodeTicks), s.idleWindows)
	r.set("peak_heap_mb", heap.mb(), 1)
	r.extra["converge_s"] = median(s.convWall)
	r.extra["converge_s_samples"] = s.convWall
	r.extra["stabilize_ticks"] = median(s.stabTicks)
	t, pct := tail(s.idleWall)
	r.extra["idle_tick_ms_p50"] = median(s.idleWall)
	r.extra["idle_tick_ms_tail"] = t
	r.extra["idle_tick_ms_tail_pct"] = pct
	r.extra["idle_ticks"] = len(s.idleWall)
}

// frameKinds are the wire frame classes the codec replay splits by.
var frameKinds = []string{"anchor", "delta", "data", "resync", "advert"}

// perLayer lists the per-layer metrics a traced run prints. A metric
// that does not apply to a workload is printed as 0 and its reason is
// given under "not_applicable" in the report line.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"bits.gamma_decode_ns", "ns"},
		{"bits.gamma_encode_ns", "ns"},
	}
	for _, k := range frameKinds {
		m = append(m,
			struct{ name, unit string }{"wire.decode_ns_per_frame." + k, "ns"},
			struct{ name, unit string }{"wire.encode_ns_per_frame." + k, "ns"},
			struct{ name, unit string }{"wire.decode_allocs_per_frame." + k, "count"},
			struct{ name, unit string }{"wire.bytes_per_frame." + k, "B"},
		)
	}
	return append(m, []struct{ name, unit string }{
		{"cluster.actor_ms_per_tick", "ms"},
		{"cluster.allocs_per_frame", "count"},
		{"cluster.frames_recv_per_tick", "count"},
		{"cluster.applied_ratio", "ratio"},
		{"cluster.idle_tick_us_per_node", "us"},
		{"cluster.sweep_ms_per_tick", "ms"},
		{"transport.step_ms_per_tick", "ms"},
		{"transport.broadcasts_per_tick", "count"},
		{"transport.bytes_per_tick", "B"},
		{"transport.udp_broadcast_us", "us"},
		{"transport.fault_lost", "count"},
		{"transport.fault_duplicated", "count"},
		{"transport.fault_corrupted", "count"},
		{"transport.fault_delayed", "count"},
		{"cluster.resyncs", "count"},
		{"cluster.delta_misses", "count"},
		{"cluster.rx_rejected_ratio", "ratio"},
		{"cluster.anchor_share", "ratio"},
		{"quiet.announce_lag_ticks", "count"},
		{"quiet.retractions", "count"},
		{"membership.join_ms", "ms"},
		{"membership.crash_ms", "ms"},
		{"membership.evictions", "count"},
		{"gateway.launch_ms", "ms"},
		{"gateway.forwards_per_tick", "count"},
		{"gateway.mean_hops", "count"},
		{"gateway.dropped", "count"},
		{"gateway.lost", "count"},
		{"trace.armed_tick_overhead", "ratio"},
		{"trace.merge_ms", "ms"},
		{"trace.overhead_converge", "ratio"},
		{"trace.overhead_idle_tick", "ratio"},
		{"ops.scrape_ms", "ms"},
		{"go.gc_cycles", "count"},
		{"profile.bits.flat_pct", "%"},
		{"profile.wire.flat_pct", "%"},
		{"profile.cluster.flat_pct", "%"},
		{"profile.routing.flat_pct", "%"},
		{"profile.runtime.flat_pct", "%"},
		{"profile.trace.flat_pct", "%"},
		{"profile.ops.flat_pct", "%"},
		{"profile.algorithm.flat_pct", "%"},
		{"profile.go_sched.flat_pct", "%"},
		{"profile.go_gc.flat_pct", "%"},
		{"profile.syscall.flat_pct", "%"},
		{"profile.perfbench.flat_pct", "%"},
	}...)
}()

// run is one invocation's state: the measurement window, the collected
// values, and the correctness gate.
type run struct {
	workload string
	seed     int64
	seconds  int
	start    time.Time
	steal0   [2]float64 // stolen and total jiffies at the start
	traced   bool
	sp       *spans // nil in untraced runs

	gate   gate
	values map[string]float64 // metric values, end-to-end or per-layer
	counts map[string]int     // sample count behind a metric
	na     map[string]string  // per-layer metric → why it does not apply
	extra  map[string]any     // workload-specific numbers for the report
	params map[string]any     // workload parameters for the stamp
}

func newRun(workload string, seed int64, seconds int, traced bool) *run {
	now := time.Now()
	steal, total := stealJiffies()
	r := &run{workload: workload, seed: seed, seconds: seconds, start: now, traced: traced,
		steal0: [2]float64{steal, total},
		values: map[string]float64{}, counts: map[string]int{}, na: map[string]string{},
		extra: map[string]any{}, params: map[string]any{}}
	if traced {
		r.sp = newSpans(fmt.Sprintf("%s-%d-%d", workload, seed, now.UnixNano()))
	}
	return r
}

// units turns the measurement time into a number of work units: what
// is left of --seconds after `fixed` seconds of one-off work, divided
// by the nominal seconds one unit takes (measured on the 2-core
// reference machine), and at least min. The count depends only on
// the arguments, never on how fast this run happens to go: a faster
// change does the same work as its parent, every run of a seed has the
// same structure, and the counts it reports repeat exactly. Units get
// faster as a process warms up, so a time-driven count would also bias
// a faster program's medians towards its later, warmer units.
func (r *run) units(fixed, per float64, min int) int {
	return max(min, int((float64(r.seconds)-fixed)/per))
}

// set records a metric value with the number of samples behind it.
func (r *run) set(name string, v float64, samples int) {
	r.values[name] = v
	r.counts[name] = samples
}

// timing records the median and tail of a timing sample set under
// name_p50 and name_tail.
func (r *run) timing(name string, xs []float64) {
	t, pct := tail(xs)
	r.set(name+"_p50", median(xs), len(xs))
	r.set(name+"_tail", t, len(xs))
	r.extra[name+"_tail_pct"] = pct
}

// notApplicable marks per-layer metrics that have no meaning on this
// workload.
func (r *run) notApplicable(why string, names ...string) {
	for _, n := range names {
		r.na[n] = why
	}
}

// gate is the correctness gate: every check is an attempted operation;
// a failed one counts toward failed_share, and a failed spec check
// (silence, tree shape, register bound, codec round trip) also makes
// the process exit nonzero.
type gate struct {
	attempted, failed int
	specFailed        bool
	failures          []string
}

func (g *gate) check(ok bool, what string, args ...any) bool {
	g.attempted++
	if !ok {
		g.failed++
		if len(g.failures) < 32 {
			g.failures = append(g.failures, fmt.Sprintf(what, args...))
		}
	}
	return ok
}

func (g *gate) spec(ok bool, what string, args ...any) bool {
	if !g.check(ok, what, args...) {
		g.specFailed = true
	}
	return ok
}

// ops adds n attempted operations of which failed failed (packets).
func (g *gate) ops(n, failed int) {
	g.attempted += n
	g.failed += failed
}

// report is the run's full record: the contract result plus the
// environment stamp and every number the workload produced.
type report struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       int                `json:"seconds"`
	Traced        bool               `json:"traced"`
	StartedUnixNS int64              `json:"started_unix_ns"`
	ElapsedS      float64            `json:"elapsed_s"`
	Env           map[string]string  `json:"env"`
	Params        map[string]any     `json:"params"`
	Samples       map[string]int     `json:"samples"`
	Extra         map[string]any     `json:"extra"`
	NotApplicable map[string]string  `json:"not_applicable,omitempty"`
	FailedShare   float64            `json:"failed_share"`
	Failures      []string           `json:"failures,omitempty"`
	SelfMS        map[string]float64 `json:"span_self_ms,omitempty"`
	Result        result             `json:"result"`
}

func (r *run) report() report {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	res := result{Correct: !r.gate.specFailed && r.gate.failed == 0,
		Attempted: max(r.gate.attempted, 1), Failed: r.gate.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && r.na[m.name] == "" {
			r.na[m.name] = "not measured in this run"
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	rep := report{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Traced: r.traced,
		StartedUnixNS: r.start.UnixNano(), ElapsedS: time.Since(r.start).Seconds(),
		Env: envStamp(), Params: r.params, Samples: map[string]int{}, Extra: r.extra,
		NotApplicable: r.na, FailedShare: ratio(float64(res.Failed), float64(res.Attempted)),
		Failures: r.gate.failures, Result: res}
	steal, total := stealJiffies()
	rep.Extra["cpu_steal_share"] = ratio(steal-r.steal0[0], total-r.steal0[1])
	for _, m := range list {
		if c, ok := r.counts[m.name]; ok {
			rep.Samples[m.name] = c
		}
	}
	if r.sp != nil {
		rep.SelfMS = r.sp.selfTimes()
		path := filepath.Join(outDir(), r.sp.runID+".spans.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := r.sp.write(path); err == nil {
				rep.Extra["spans_file"] = path
			}
		}
	}
	return rep
}

// envStamp records what the numbers were measured on and with.
func envStamp() map[string]string {
	return map[string]string{
		"go_version": goruntime.Version(),
		"goos":       goruntime.GOOS + "/" + goruntime.GOARCH,
		"cpu_model":  cpuModel(),
		"gomaxprocs": fmt.Sprint(goruntime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(goruntime.NumCPU()),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the benchmark runs inside a
// git work tree, and "none" otherwise (the source digest still
// identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the repository's Go sources and module files, so
// two result sets can be matched to the exact code they measured even
// from a checkout that is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealJiffies reads the machine's stolen and total CPU time from
// /proc/stat (zeros where it is unavailable). The report gives the
// stolen share over the run: a run slowed by a busy host shows it.
func stealJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler tracks the peak of the Go heap's object bytes (live and
// not yet swept), read without stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
}

func (h *heapSampler) mb() float64 { return float64(h.peak) / (1 << 20) }

// counters reads cumulative runtime counters for per-layer deltas.
type rtCounters struct{ allocs, gcs uint64 }

func readRT() rtCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return rtCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}
