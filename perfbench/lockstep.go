package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

// tickSplit accumulates the traced split of a phase's ticks: actor time
// (Tick entry to Step entry), the transport's Step, and the sweep (Step
// exit to Tick return, including the gateway refresh).
type tickSplit struct {
	ticks                  int
	actorMS, stepMS, sweep float64
}

// lockstep drives one lockstep cluster tick by tick from the driver
// goroutine and keeps the ground truth the checks need: the tick of the
// last register write (δ-driven or injected) and every announcement
// transition.
type lockstep struct {
	r    *run
	cl   *cluster.Cluster
	st   *stepTransport // nil in untraced episodes
	heap *heapSampler
	qw   uint64 // the cluster's QuietWindow in ticks
	// lossy marks a cluster over a lossy transport. Its idle windows may
	// flap: a run of lost anchors to one neighbor expires that entry
	// after StalenessTTL ticks and the node rewrites its register until
	// the next anchor lands. The cluster promises to re-stabilize and
	// re-announce, not to stay silent under ongoing loss, so there the
	// gate requires re-announcement and counts the flaps.
	lossy bool

	lastWrite   uint64
	announced   bool
	annEpoch    uint64
	retractions int
	// annLag collects, per announcement, the ticks from the last write.
	annLag []float64

	phase  string
	splits map[string]*tickSplit
}

func newLockstep(r *run, cl *cluster.Cluster, st *stepTransport, qw int, heap *heapSampler) *lockstep {
	return &lockstep{r: r, cl: cl, st: st, qw: uint64(qw), heap: heap, splits: map[string]*tickSplit{}}
}

// tick runs one Tick and returns its wall time and the process CPU time
// it took, both in milliseconds.
func (ls *lockstep) tick() (wallMS, cpuMS float64) {
	sp := ls.r.sp
	if ls.st == nil {
		sp = nil
	}
	i := sp.begin("tick")
	c0 := cpuSeconds()
	t0 := time.Now()
	ls.cl.Tick()
	t1 := time.Now()
	cpuMS = 1000 * (cpuSeconds() - c0)
	if ls.st != nil {
		sp.add("cluster.actors", t0, ls.st.stepStart)
		sp.add("transport.step", ls.st.stepStart, ls.st.stepEnd)
		sp.add("cluster.sweep", ls.st.stepEnd, t1)
		s := ls.splits[ls.phase]
		if s == nil {
			s = &tickSplit{}
			ls.splits[ls.phase] = s
		}
		s.ticks++
		s.actorMS += ms(ls.st.stepStart.Sub(t0))
		s.stepMS += ms(ls.st.stepEnd.Sub(ls.st.stepStart))
		s.sweep += ms(t1.Sub(ls.st.stepEnd))
	}
	sp.end(i)
	now := ls.cl.Ticks()
	if ls.cl.ChangedLastTick() > 0 {
		ls.lastWrite = now
	}
	ann, epoch := ls.cl.QuietAnnounced(), ls.cl.QuietEpoch()
	if ann && (!ls.announced || epoch > ls.annEpoch) {
		lag := now - ls.lastWrite
		ls.annLag = append(ls.annLag, float64(lag))
		ls.r.gate.check(lag >= ls.qw, "announcement at tick %d only %d ticks after a write (quiet window %d)", now, lag, ls.qw)
	}
	if !ann && ls.announced {
		ls.retractions++
	}
	ls.announced, ls.annEpoch = ann, epoch
	ls.heap.sample()
	return ms(t1.Sub(t0)), cpuMS
}

// injected records an out-of-band register write or membership event
// made between ticks.
func (ls *lockstep) injected() { ls.lastWrite = ls.cl.Ticks() }

// convergeResult is one run to the first announcement.
type convergeResult struct {
	seconds        float64 // wall time
	cpuSeconds     float64 // process CPU time
	ticks          int
	stabilizeTicks int
}

// converge ticks until the in-band detector announces quiet. It fails
// the spec check when no announcement arrives within maxTicks.
func (ls *lockstep) converge(maxTicks int) (convergeResult, bool) {
	ls.phase = "converge"
	settle()
	i := ls.r.sp.begin("converge")
	defer ls.r.sp.end(i)
	start, t0, c0 := ls.cl.Ticks(), time.Now(), cpuSeconds()
	ls.lastWrite = start
	for k := 0; k < maxTicks; k++ {
		ls.tick()
		if ls.announced {
			return convergeResult{seconds: time.Since(t0).Seconds(), cpuSeconds: cpuSeconds() - c0,
				ticks: int(ls.cl.Ticks() - start), stabilizeTicks: int(ls.lastWrite - start)}, true
		}
	}
	ls.r.gate.spec(false, "no announcement within %d ticks", maxTicks)
	return convergeResult{}, false
}

// idleResult is one idle window over the announced-quiet cluster.
type idleResult struct {
	tickMS    []float64 // wall time per tick
	tickCPU   []float64 // process CPU time per tick, ms
	cpuPerS   float64   // process CPU-seconds per wall second
	bytes     float64   // bytes sent by all nodes
	nodeTicks float64   // live nodes × ticks
	// flapTicks and flaps count, on a lossy cluster, the window's ticks
	// with a register write and its retractions.
	flapTicks, flaps int
}

// flapRecoverTicks bounds the unmeasured ticks a lossy cluster gets
// after its idle window to re-announce a flap.
const flapRecoverTicks = 4000

// idle runs ticks over the announced cluster and checks that it stays
// silent: no register write and no retraction. A lossy cluster must
// instead end the window announced, ticking past it if a flap is still
// healing.
func (ls *lockstep) idle(ticks int) idleResult {
	ls.phase = "idle"
	settle()
	i := ls.r.sp.begin("idle")
	defer ls.r.sp.end(i)
	var res idleResult
	before, retr := ls.cl.Stats(), ls.retractions
	cpu0, t0 := cpuSeconds(), time.Now()
	for k := 0; k < ticks; k++ {
		wall, cpu := ls.tick()
		res.tickMS = append(res.tickMS, wall)
		res.tickCPU = append(res.tickCPU, cpu)
		if ls.lossy {
			if ls.cl.ChangedLastTick() > 0 {
				res.flapTicks++
			}
			continue
		}
		ls.r.gate.check(ls.cl.ChangedLastTick() == 0, "register write at tick %d of the idle window", ls.cl.Ticks())
	}
	res.cpuPerS = (cpuSeconds() - cpu0) / time.Since(t0).Seconds()
	res.bytes = float64(ls.cl.Stats().BytesSent - before.BytesSent)
	res.nodeTicks = float64(ticks * ls.cl.Nodes())
	if !ls.lossy {
		ls.r.gate.check(ls.retractions == retr && ls.announced, "announcement retracted during the idle window")
		return res
	}
	res.flaps = ls.retractions - retr
	for k := 0; k < flapRecoverTicks && !ls.announced; k++ {
		ls.tick()
	}
	ls.r.gate.check(ls.announced, "no re-announcement within %d ticks of an idle-window flap", flapRecoverTicks)
	return res
}

// registerBound is the paper's O(log n) register budget as the issue
// states it: 8⌈log₂n⌉+8 bits.
func registerBound(n int) int { return 8*int(math.Ceil(math.Log2(float64(n)))) + 8 }

// checkSpec runs the spec gate on the cluster's registers: the mirrored
// configuration is silent, the extracted tree is a BFS tree of the
// graph, and no register exceeds the space bound.
func checkSpec(r *run, cl *cluster.Cluster) {
	i := r.sp.begin("check.spec")
	defer r.sp.end(i)
	var net *runtime.Network
	r.sp.timed("cluster.mirror", func() {
		var err error
		net, err = cl.Mirror()
		r.gate.spec(err == nil, "mirror: %v", err)
	})
	if net == nil {
		return
	}
	r.gate.spec(runtime.CheckSilentStable(net) == nil, "mirrored configuration is not silent")
	var t *trees.Tree
	var err error
	// The register family follows from the codec: the switching codec
	// carries the BFS construction, the spanning codec the substrate.
	if _, ok := cl.Codec().(wire.Switching); ok {
		t, err = switching.ExtractTree(net, switching.RegOf)
	} else {
		t, err = spanning.ExtractTree(net)
	}
	if r.gate.spec(err == nil, "tree extraction: %v", err) {
		r.gate.spec(trees.IsBFSTree(t, cl.Graph()), "extracted tree is not a BFS tree")
		r.gate.spec(t.N() == cl.Nodes(), "tree spans %d of %d nodes", t.N(), cl.Nodes())
	}
	bits, bound := cl.MaxRegisterBits(), registerBound(cl.Nodes())
	r.gate.spec(bits <= bound, "register of %d bits exceeds 8⌈log₂n⌉+8 = %d", bits, bound)
}

// pickVictim draws a non-root node whose crash keeps the graph
// connected, and returns it with its edges for the rejoin.
func pickVictim(g *graph.Graph, draw func(int) int) (graph.NodeID, []graph.Edge, error) {
	nodes := g.Nodes()
	root := g.MinID()
	for tries := 0; tries < 64; tries++ {
		v := nodes[draw(len(nodes))]
		if v == root {
			continue
		}
		trial := g.Clone()
		trial.RemoveNode(v)
		if !trial.Connected() {
			continue
		}
		var es []graph.Edge
		for _, u := range g.Neighbors(v) {
			w, _ := g.EdgeWeight(v, u)
			es = append(es, graph.Edge{U: v, V: u, W: w})
		}
		return v, es, nil
	}
	return 0, nil, fmt.Errorf("no connectivity-preserving victim in 64 draws")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// settle collects garbage before a timed phase, so each phase starts
// from the same heap state instead of inheriting a collection the
// previous phase left half-paid.
func settle() { goruntime.GC() }
