package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileGroups maps the profile's functions onto the layers the
// per-layer metrics name: the repository's packages by import path,
// and the Go runtime split into garbage collection (and allocation)
// versus everything else (scheduling, channels, timers, locks).
var profileGroups = []struct{ group, prefix string }{
	{"bits", "silentspan/internal/bits."},
	{"wire", "silentspan/internal/wire."},
	{"cluster", "silentspan/internal/cluster."},
	{"routing", "silentspan/internal/routing."},
	{"runtime", "silentspan/internal/runtime."},
	{"trace", "silentspan/internal/trace."},
	{"ops", "silentspan/internal/ops."},
	{"algorithm", "silentspan/internal/spanning."},
	{"algorithm", "silentspan/internal/switching."},
	{"algorithm", "silentspan/internal/bfs."},
	{"algorithm", "silentspan/internal/trees."},
	{"algorithm", "silentspan/internal/graph."},
	{"algorithm", "silentspan/internal/pls."},
	{"perfbench", "main."},
	{"syscall", "syscall."},
	{"syscall", "internal/runtime/syscall."},
	{"syscall", "internal/poll."},
	{"syscall", "net."},
}

// goRuntimeOther are standard-library packages counted with the Go
// scheduler: locks, timers and the runtime's internal helpers.
var goRuntimeOther = []string{"sync.", "internal/sync.", "time.", "internal/runtime/", "runtime/internal/"}

// goGCFuncs marks Go runtime functions that belong to the collector and
// the allocator rather than the scheduler.
var goGCFuncs = []string{"gc", "mark", "scan", "sweep", "malloc", "mspan", "mheap", "mcache",
	"mcentral", "heapBits", "wbBuf", "greyobject", "findObject", "memclr", "bgscavenge", "scavenge"}

// cpuProfile is a running CPU profile of the traced episode.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(r *run) (*cpuProfile, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.cpu.pprof", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// reduce runs the installed toolchain's `go tool pprof -top` on the
// profile and records each group's share of the flat samples.
func (p *cpuProfile) reduce(r *run) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	shares := map[string]float64{}
	sc := bufio.NewScanner(&out)
	rows := 0
	for sc.Scan() {
		// "  flat  flat%   sum%   cum   cum%  name"
		fields := strings.Fields(sc.Text())
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			continue
		}
		rows++
		shares[profileGroup(strings.Join(fields[5:], " "))] += pct
	}
	if rows == 0 {
		return fmt.Errorf("go tool pprof printed no samples")
	}
	for _, g := range []string{"bits", "wire", "cluster", "routing", "runtime", "trace", "ops",
		"algorithm", "go_sched", "go_gc", "syscall", "perfbench"} {
		r.set("profile."+g+".flat_pct", shares[g], rows)
	}
	r.extra["profile_other_flat_pct"] = shares["other"]
	r.extra["profile_file"] = p.path
	return nil
}

func profileGroup(fn string) string {
	for _, g := range profileGroups {
		if strings.HasPrefix(fn, g.prefix) {
			return g.group
		}
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		name = strings.ToLower(name)
		for _, k := range goGCFuncs {
			if strings.Contains(name, strings.ToLower(k)) {
				return "go_gc"
			}
		}
		return "go_sched"
	}
	for _, p := range goRuntimeOther {
		if strings.HasPrefix(fn, p) {
			return "go_sched"
		}
	}
	return "other"
}
