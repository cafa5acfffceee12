package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
)

// E13Cluster is the message-passing cluster scale table: the full
// serving stack — node actors on lockstep shards exchanging heartbeat
// frames over the in-process transport, convergence to the silent
// tree, then a routed packet batch carried hop-by-hop as data frames
// through the same transport. It reports convergence latency in ticks
// (the round yardstick of the Devismes–Johnen BFS analysis: from the
// benign self-root start the substrate needs O(diameter) heartbeat
// exchanges) and heartbeat throughput, so the table doubles as the
// regression guard for the wire codec's per-frame cost.
func E13Cluster(ns []int, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E13: message-passing cluster — convergence latency + heartbeat throughput",
		Header: []string{"n", "m", "ticks", "stab-ms", "frames", "MB", "kframe/s", "pkts", "delivered", "kpkt/s", "mean-hops"},
		Notes: []string{
			"substrate: spanning.Algorithm from the post-reset configuration, channel transport, lockstep ticks",
			"packets ride the transport as checksummed data frames, one hop per tick, greedy over the live labeling",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		// E13 pins the classic wire behavior — full-state frame every
		// tick — so it stays the fixed baseline the delta protocol (E14)
		// is measured against.
		cl, err := cluster.New(g, spanning.Algorithm{}, cluster.NewChanTransport(),
			cluster.Config{DisableDelta: true, DisableBackoff: true})
		if err != nil {
			return nil, fmt.Errorf("E13 n=%d: %w", n, err)
		}
		gw := cluster.NewGateway(cl)
		for _, v := range g.Nodes() {
			cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
		}

		start := time.Now()
		ticks, quiet := cl.RunUntilQuiet(32*n, 4)
		stab := time.Since(start)
		if !quiet {
			cl.Stop()
			return nil, fmt.Errorf("E13 n=%d: no quiet within %d ticks", n, 32*n)
		}
		st := cl.Stats()
		if !gw.Labeling().Complete() {
			cl.Stop()
			return nil, fmt.Errorf("E13 n=%d: labeling incomplete after quiet", n)
		}

		pairs := routing.UniformPairs(g.Nodes(), packets, rng)
		start = time.Now()
		gw.Launch(pairs)
		for i := 0; i < 8*n && gw.Outstanding() > 0; i++ {
			cl.Tick()
		}
		routeDur := time.Since(start)
		gws := gw.Stats()
		cl.Stop()
		if gws.DeliveryRate() != 1 {
			return nil, fmt.Errorf("E13 n=%d: delivery %.4f on a clean transport", n, gws.DeliveryRate())
		}

		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()), itoa(ticks),
			itoa(int(stab.Milliseconds())),
			itoa(st.FramesSent),
			fmt.Sprintf("%.1f", float64(st.BytesSent)/(1<<20)),
			fmt.Sprintf("%.0f", float64(st.FramesSent)/stab.Seconds()/1000),
			itoa(gws.Launched),
			fmt.Sprintf("%.2f%%", 100*gws.DeliveryRate()),
			fmt.Sprintf("%.0f", float64(gws.Launched)/routeDur.Seconds()/1000),
			fmt.Sprintf("%.1f", gws.MeanHops()),
		})
	}
	return tb, nil
}

// e14Run is one E14 episode measurement.
type e14Run struct {
	ticks         int     // RunUntilQuiet ticks (convergence + quiet window)
	frames        int     // episode frames: converge + idle window + routed batch
	bytes         int     // episode bytes, same scope
	idleFrPerTick float64 // frames per tick per node over the idle window
	delivered     float64 // post-quiet batch delivery rate
}

// e14One runs one E14 episode: converge the spanning substrate from the
// benign self-root start, sit idle for `idle` ticks, then serve a
// routed batch over the quiet cluster. Legacy mode pins the classic
// full-state-every-tick wire behavior; otherwise the delta protocol and
// keep-alive back-off run at their defaults.
func e14One(n, packets, idle int, seed int64, legacy bool) (e14Run, error) {
	var r e14Run
	rng := rand.New(rand.NewSource(seed + int64(n)))
	g := graph.RandomConnected(n, 8/float64(n), rng)
	cfg := cluster.Config{StalenessTTL: 128}
	if legacy {
		cfg.DisableDelta, cfg.DisableBackoff = true, true
	}
	cl, err := cluster.New(g, spanning.Algorithm{}, cluster.NewChanTransport(), cfg)
	if err != nil {
		return r, err
	}
	defer cl.Stop()
	gw := cluster.NewGateway(cl)
	for _, v := range g.Nodes() {
		cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
	}
	ticks, quiet := cl.RunUntilQuiet(32*n, 4)
	if !quiet {
		return r, fmt.Errorf("no quiet within %d ticks", 32*n)
	}
	r.ticks = ticks
	if !gw.Labeling().Complete() {
		return r, fmt.Errorf("labeling incomplete after quiet")
	}

	// The idle window: the converged cluster doing nothing but staying
	// alive — the regime the delta keep-alives and the cadence back-off
	// are for.
	idleStart := cl.Stats()
	for i := 0; i < idle; i++ {
		cl.Tick()
	}
	r.idleFrPerTick = float64(cl.Stats().FramesSent-idleStart.FramesSent) / float64(idle) / float64(n)

	// A routed batch over the quiet cluster: the delta frames must not
	// have cost any delivery fidelity.
	gw.Launch(routing.UniformPairs(g.Nodes(), packets, rng))
	for i := 0; i < 8*n && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	gws := gw.Stats()
	r.delivered = gws.DeliveryRate()
	st := cl.Stats()
	r.frames, r.bytes = st.FramesSent, st.BytesSent
	return r, nil
}

// E14DeltaWire measures what the delta heartbeats and the
// silence-aware cadence buy on the wire: for each n, one full episode
// (converge → idle window → routed batch) under the classic
// full-state-every-tick framing and one under the delta protocol, over
// identical graphs and packet workloads. The table reports the
// episode's frame and byte totals, the idle-window frame rate — the
// cost of merely existing once converged — and the byte reduction
// factor.
func E14DeltaWire(ns []int, packets, idle int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E14: delta heartbeats + cadence back-off — wire cost of the quiet cluster",
		Header: []string{"n", "mode", "ticks", "frames", "MB", "idle-fr/t/n", "delivered", "MB-x"},
		Notes: []string{
			"episode = converge from self-root start + idle window + routed batch over the quiet cluster",
			fmt.Sprintf("idle window = %d ticks; StalenessTTL=128 both modes; legacy pins full-state frames every tick", idle),
			"idle-fr/t/n: frames per tick per node while idle (legacy ≈ mean degree; delta ≈ degree/backoff-cap)",
		},
	}
	for _, n := range ns {
		legacy, err := e14One(n, packets, idle, seed, true)
		if err != nil {
			return nil, fmt.Errorf("E14 n=%d legacy: %w", n, err)
		}
		delta, err := e14One(n, packets, idle, seed, false)
		if err != nil {
			return nil, fmt.Errorf("E14 n=%d delta: %w", n, err)
		}
		for _, row := range []struct {
			mode string
			r    e14Run
			x    string
		}{
			{"legacy", legacy, "1.0"},
			{"delta", delta, fmt.Sprintf("%.1f", float64(legacy.bytes)/float64(delta.bytes))},
		} {
			tb.Rows = append(tb.Rows, []string{
				itoa(n), row.mode, itoa(row.r.ticks),
				itoa(row.r.frames),
				fmt.Sprintf("%.1f", float64(row.r.bytes)/(1<<20)),
				fmt.Sprintf("%.2f", row.r.idleFrPerTick),
				fmt.Sprintf("%.2f%%", 100*row.r.delivered),
				row.x,
			})
		}
	}
	return tb, nil
}

// e15Cluster builds and converges one E15 measurement cluster: the
// spanning substrate from the self-root start, back-off disabled so a
// quiet cluster still broadcasts at the pinned base cadence — constant
// frame pressure, which is exactly what the flight-recorder hooks sit
// on.
func e15Cluster(g *graph.Graph, traceCap int) (*cluster.Cluster, error) {
	cl, err := cluster.New(g, spanning.Algorithm{}, cluster.NewChanTransport(),
		cluster.Config{DisableBackoff: true})
	if err != nil {
		return nil, err
	}
	if traceCap > 0 {
		cl.EnableFlightRecorder(traceCap)
	}
	for _, v := range g.Nodes() {
		cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
	}
	if _, quiet := cl.RunUntilQuiet(32*g.N(), 4); !quiet {
		cl.Stop()
		return nil, fmt.Errorf("no quiet within %d ticks", 32*g.N())
	}
	return cl, nil
}

// e15Best times `reps` busy windows of `window` ticks and returns the
// best frame throughput (frames/s) — best-of aggregation discards GC
// and scheduler noise, the standard trick for tight A/B deltas.
func e15Best(cl *cluster.Cluster, window, reps int) (float64, int) {
	best := 0.0
	frames := 0
	for r := 0; r < reps; r++ {
		before := cl.Stats().FramesSent
		start := time.Now()
		for i := 0; i < window; i++ {
			cl.Tick()
		}
		dur := time.Since(start)
		frames = cl.Stats().FramesSent - before
		if thr := float64(frames) / dur.Seconds(); thr > best {
			best = thr
		}
	}
	return best, frames
}

// E15TraceOverhead measures what the flight recorder costs on the
// frame hot path: identical busy windows (back-off pinned off, so
// every node broadcasts at the base cadence) over one cluster with the
// recorder disarmed and one with it armed, interleaved rep-by-rep so
// both modes share any machine-level drift. The disarmed hooks are one
// atomic nil load per event site; their cost against the pre-recorder
// wire is bounded by the A/A row — the off cluster raced against
// itself on alternating reps, so any systematic hook cost would have
// to show above that noise floor.
func E15TraceOverhead(n, window, reps int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E15: flight recorder — frame throughput, tracing off vs on",
		Header: []string{"n", "mode", "win-frames", "kframe/s", "ovh%"},
		Notes: []string{
			fmt.Sprintf("busy window = %d ticks at the pinned base cadence (DisableBackoff), best of %d interleaved reps", window, reps),
			"off = recorder disarmed (hooks are one atomic nil load per event site); on = 8192-event rings armed",
			"off-A/A = the off cluster timed against itself on alternating reps: the noise floor any disabled-path cost must exceed",
		},
	}
	rng := rand.New(rand.NewSource(seed + int64(n)))
	g := graph.RandomConnected(n, 8/float64(n), rng)
	off, err := e15Cluster(g, 0)
	if err != nil {
		return nil, fmt.Errorf("E15 n=%d off: %w", n, err)
	}
	defer off.Stop()
	on, err := e15Cluster(g.Clone(), 8192)
	if err != nil {
		return nil, fmt.Errorf("E15 n=%d on: %w", n, err)
	}
	defer on.Stop()

	// One untimed warm-up window per cluster: the first window pays for
	// cold caches and lazily grown runtime structures, which would
	// otherwise skew whichever series runs first.
	e15Best(off, window, 1)
	e15Best(on, window, 1)

	// Interleave: off-A, off-B, on — rep by rep — so all three series
	// sample the same thermal/GC environment, and alternate the A/B
	// order across reps so a monotone drift (frequency scaling, cache
	// warm-up tail) cannot systematically favor whichever of the two
	// off series runs later within a rep.
	bestA, bestB, bestOn := 0.0, 0.0, 0.0
	framesOff, framesOn := 0, 0
	for r := 0; r < reps; r++ {
		first, second := &bestA, &bestB
		if r%2 == 1 {
			first, second = &bestB, &bestA
		}
		thr, fr := e15Best(off, window, 1)
		*first, framesOff = max(*first, thr), fr
		thr, _ = e15Best(off, window, 1)
		*second = max(*second, thr)
		thr, fr = e15Best(on, window, 1)
		bestOn, framesOn = max(bestOn, thr), fr
	}
	ovh := func(base, v float64) string {
		return fmt.Sprintf("%.2f", 100*(base-v)/base)
	}
	tb.Rows = append(tb.Rows,
		[]string{itoa(n), "off", itoa(framesOff), fmt.Sprintf("%.0f", bestA/1000), "0.00"},
		[]string{itoa(n), "off-A/A", itoa(framesOff), fmt.Sprintf("%.0f", bestB/1000), ovh(bestA, bestB)},
		[]string{itoa(n), "on", itoa(framesOn), fmt.Sprintf("%.0f", bestOn/1000), ovh(bestA, bestOn)},
	)
	return tb, nil
}
