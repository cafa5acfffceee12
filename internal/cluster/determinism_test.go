package cluster

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
)

// traceRun executes one fully seeded cluster run over an n-node random
// graph of edge probability p — adversarial init, chaotic transport,
// packet cohort — and returns the execution-trace hash plus the
// headline counters. Mirrors the simulator's scheduler-determinism test
// at the cluster layer: the node ticks genuinely run concurrently, and
// the BSP barriers plus barrier-time fault decisions must make the
// whole execution a function of the seed alone.
func traceRun(t *testing.T, seed int64, n int, p float64) (uint64, Stats, GatewayStats, FaultStats, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, p, rng)
	ft := NewFaultTransport(NewChanTransport(), FaultConfig{
		Seed: seed + 1, Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.2, MaxDelayTicks: 4})
	cl, err := New(g, bfs.Algorithm{}, ft, Config{StalenessTTL: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.EnableTrace()
	gw := NewGateway(cl)
	cl.InitArbitrary(rand.New(rand.NewSource(seed + 2)))
	for i := 0; i < 5; i++ {
		cl.Tick()
	}
	gw.Launch(routing.UniformPairs(g.Nodes(), 32, rand.New(rand.NewSource(seed+3))))
	ticks, ok := cl.RunUntilQuiet(20000, 10)
	if !ok {
		t.Fatalf("seed %d: no quiet", seed)
	}
	for i := 0; i < 64; i++ {
		cl.Tick()
	}
	gw.Expire()
	return cl.TraceSum(), cl.Stats(), gw.Stats(), ft.Stats(), ticks
}

// TestSeededDeterminism: same seed ⇒ identical cluster execution trace
// on the channel transport — register-change history, frame counters,
// fault schedule, packet outcomes, convergence latency, everything.
func TestSeededDeterminism(t *testing.T) {
	h1, s1, g1, f1, t1 := traceRun(t, 42, 14, 0.3)
	h2, s2, g2, f2, t2 := traceRun(t, 42, 14, 0.3)
	if h1 != h2 {
		t.Errorf("trace hash diverged: %#x vs %#x", h1, h2)
	}
	if s1 != s2 {
		t.Errorf("cluster stats diverged: %+v vs %+v", s1, s2)
	}
	if g1 != g2 {
		t.Errorf("gateway stats diverged: %+v vs %+v", g1, g2)
	}
	if f1 != f2 {
		t.Errorf("fault stats diverged: %+v vs %+v", f1, f2)
	}
	if t1 != t2 {
		t.Errorf("convergence latency diverged: %d vs %d", t1, t2)
	}

	// A different seed must explore a different execution (sanity check
	// that the trace hash actually covers the run).
	h3, _, _, _, _ := traceRun(t, 43, 14, 0.3)
	if h3 == h1 {
		t.Errorf("seeds 42 and 43 produced the identical trace %#x", h1)
	}
}

// TestShardedDeterminism: a cluster large enough that every worker
// claims several chunks per tick runs the identical execution whatever
// the worker count — the shard schedule decides only which goroutine
// steps a node, never what the round computes.
func TestShardedDeterminism(t *testing.T) {
	n := 8 * 2 * tickChunk // eight chunks per worker at two workers
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	procs := []int{1, 2}
	if p := goruntime.GOMAXPROCS(0); p > 2 {
		procs = append(procs, p)
	}
	var h0 uint64
	var s0 Stats
	var g0 GatewayStats
	var f0 FaultStats
	var t0 int
	for i, p := range procs {
		goruntime.GOMAXPROCS(p)
		h, s, g, f, ticks := traceRun(t, 7, n, 8/float64(n))
		if i == 0 {
			h0, s0, g0, f0, t0 = h, s, g, f, ticks
			continue
		}
		if h != h0 || s != s0 || g != g0 || f != f0 || ticks != t0 {
			t.Errorf("GOMAXPROCS %d diverged from %d:\n trace %#x vs %#x\n stats %+v\n    vs %+v\n gateway %+v vs %+v\n faults %+v vs %+v\n ticks %d vs %d",
				p, procs[0], h, h0, s, s0, g, g0, f, f0, ticks, t0)
		}
	}
}
