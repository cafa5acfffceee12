package main

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/bfs"
	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
	"silentspan/internal/trace"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

type workload struct {
	run func(r *run) error
}

var workloads = map[string]workload{
	"cold-bfs":     {runColdBFS},
	"steady-route": {runSteadyRoute},
	"churn-lossy":  {runChurnLossy},
	"serve-udp":    {runServeUDP},
}

// Workload sizes. Every graph is graph.RandomConnected(n, 8/n): mean
// degree about 8.
const (
	// cold-bfs runs at n=5000 rather than 10k: a 10k convergence takes
	// 12-14 s, so a run could hold only one and its converge time spread
	// 10% from run to run; at 5000 a run holds three.
	coldN         = 5000
	coldIdleTicks = 48

	steadyN         = 10000
	steadyTTL       = 128
	steadyIdleTicks = 128 // about four keep-alive back-off periods (cap 31)
	steadyPackets   = 20000

	churnN          = 2500
	churnIdleTicks  = 192
	churnConverges  = 9 // each under its own fault schedule: 27-29 ticks
	churnMinEvents  = 12
	churnCohort     = 200
	churnDrainTicks = 8

	serveN        = 256
	serveInterval = 5 * time.Millisecond
	serveTTL      = 258
	serveIdle     = 3 * time.Second
	// serveSetupReps is how many extra builds a serve-udp run times.
	serveSetupReps = 16

	// Nominal durations on the 2-core reference machine, which turn
	// --seconds into work units (run.units): a cold-bfs episode, the
	// steady-route build-and-converge and one idle+route cycle, the
	// churn-lossy converges plus idle window and one event, and a
	// serve-udp episode.
	coldEpisodeS  = 8.0
	steadyFixedS  = 7.5
	steadyCycleS  = 4.3
	churnFixedS   = 14.0
	churnEventS   = 0.9
	serveEpisodeS = 4.6

	// setupReps is how often a run builds its cluster when it converges
	// only once: setup_s is the median of these builds.
	setupReps = 3
	// captureSenders is how many nodes' frames the codec replay samples.
	captureSenders = 32
	// flightCap is the ring size of the armed flight-recorder window.
	flightCap = 4096
)

// quietWindow is the detector window cfg resolves to: QuietWindow,
// defaulting to StalenessTTL, which defaults to 12 (cluster.Config).
func quietWindow(cfg cluster.Config) int {
	switch {
	case cfg.QuietWindow > 0:
		return cfg.QuietWindow
	case cfg.StalenessTTL > 0:
		return cfg.StalenessTTL
	}
	return 12
}

// topologySeed fixes each workload's graph. The graph sets how many
// ticks convergence takes (on cold-bfs, 68 to 98 across the first six
// graph seeds at n=10k), so a run-to-run comparison over different
// graphs would mostly measure the topology. --seed draws everything
// else: the arbitrary registers, packet pairs, fault fates, churn
// victims and the codec-replay sample.
const topologySeed = 1

// genGraph builds the workload's fixed n-node graph.
func genGraph(n int) *graph.Graph {
	return graph.RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(topologySeed)))
}

// lockstepTransport wraps inner in the tracing transport when the
// episode is traced (capt != nil), and returns what the cluster opens.
func lockstepTransport(inner cluster.Transport, capt *capture) (cluster.Transport, *stepTransport, error) {
	if capt == nil {
		return inner, nil, nil
	}
	st, err := newStepTransport(inner, capt)
	if err != nil {
		return nil, nil, err
	}
	return st, st, nil
}

// ---------------------------------------------------------------- cold-bfs

// coldEpisode is one cold-bfs episode: build, converge from arbitrary
// registers, sit idle, check.
type coldEpisode struct {
	setup setupTime
	conv  convergeResult
	idle  idleResult
	ls    *lockstep
	cl    *cluster.Cluster
}

// A traced episode (capt set) leaves the cluster running for the
// caller; an untraced one stops it.
func coldBFSEpisode(r *run, heap *heapSampler, capt *capture) (coldEpisode, error) {
	var ep coldEpisode
	var cl *cluster.Cluster
	var st *stepTransport
	var err error
	ep.setup = measureSetup(r, func() {
		g := genGraph(coldN)
		var tr cluster.Transport
		if tr, st, err = lockstepTransport(cluster.NewChanTransport(), capt); err != nil {
			return
		}
		if cl, err = cluster.New(g, bfs.Algorithm{}, tr, cluster.Config{}); err != nil {
			return
		}
		cl.InitArbitrary(rand.New(rand.NewSource(r.seed + 1)))
	})
	if err != nil {
		return ep, err
	}
	ls := newLockstep(r, cl, st, quietWindow(cluster.Config{}), heap)
	conv, ok := ls.converge(20000)
	if !ok {
		cl.Stop()
		return ep, nil
	}
	ep.conv = conv
	ep.idle = ls.idle(coldIdleTicks)
	checkSpec(r, cl)
	ep.ls, ep.cl = ls, cl
	if capt == nil {
		cl.Stop()
	}
	return ep, nil
}

func runColdBFS(r *run) error {
	r.params["n"] = coldN
	r.params["algorithm"] = "bfs.Algorithm (switching codec)"
	r.params["transport"] = "ChanTransport, lockstep"
	r.params["config"] = "cluster.Config{} defaults"
	r.params["start"] = "InitArbitrary"
	r.params["idle_ticks"] = coldIdleTicks
	heap := newHeapSampler()
	if r.traced {
		return tracedLockstep(r, coldN, wire.Switching{}, func(capt *capture) (*lockstep, *cluster.Cluster, float64, float64, error) {
			ep, err := coldBFSEpisode(r, heap, capt)
			return ep.ls, ep.cl, ep.conv.seconds, median(ep.idle.tickMS), err
		})
	}
	episodes := r.units(0, coldEpisodeS, 1)
	r.params["episodes"] = episodes
	var s e2e
	for k := 0; k < episodes; k++ {
		ep, err := coldBFSEpisode(r, heap, nil)
		if err != nil {
			return err
		}
		if ep.conv.ticks == 0 {
			break
		}
		s.setups = append(s.setups, ep.setup)
		s.converged(ep.conv)
		s.idled(ep.idle)
	}
	r.record(&s, heap)
	return nil
}

// ------------------------------------------------------------ steady-route

// steadyCluster builds the steady-route cluster: the spanning substrate
// from the self-root start behind a gateway.
func steadyCluster(r *run, capt *capture) (*cluster.Cluster, *cluster.Gateway, *stepTransport, error) {
	g := genGraph(steadyN)
	tr, st, err := lockstepTransport(cluster.NewChanTransport(), capt)
	if err != nil {
		return nil, nil, nil, err
	}
	cl, err := cluster.New(g, spanning.Algorithm{}, tr, cluster.Config{StalenessTTL: steadyTTL})
	if err != nil {
		return nil, nil, nil, err
	}
	gw := cluster.NewGateway(cl)
	for _, v := range g.Nodes() {
		cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
	}
	return cl, gw, st, nil
}

// routeResult is one packet batch over the quiet cluster.
type routeResult struct {
	kpktS, delivery, launchMS float64
	ticks                     int
	stats                     cluster.GatewayStats
}

// routeBatch launches pairs through the gateway and ticks until every
// packet resolves (or maxTicks pass), then reaps the rest as lost and
// checks the ledger.
func routeBatch(ls *lockstep, gw *cluster.Gateway, pairs []routing.Pair, maxTicks int) routeResult {
	r := ls.r
	ls.phase = "route"
	i := r.sp.begin("route")
	defer r.sp.end(i)
	before := gw.Stats()
	t0 := time.Now()
	launch := r.sp.timed("gateway.launch", func() { gw.Launch(pairs) })
	ticks := 0
	for ; ticks < maxTicks && gw.Outstanding() > 0; ticks++ {
		ls.tick()
	}
	wall := time.Since(t0)
	gw.Expire()
	after := gw.Stats()
	d := cluster.GatewayStats{Launched: after.Launched - before.Launched,
		Delivered: after.Delivered - before.Delivered, Dropped: after.Dropped - before.Dropped,
		Lost: after.Lost - before.Lost, HopsTotal: after.HopsTotal - before.HopsTotal}
	r.gate.check(d.Delivered+d.Dropped+d.Lost == d.Launched, "gateway ledger: delivered %d + dropped %d + lost %d != launched %d",
		d.Delivered, d.Dropped, d.Lost, d.Launched)
	r.gate.ops(d.Launched, d.Launched-d.Delivered)
	return routeResult{kpktS: float64(d.Launched) / wall.Seconds() / 1000, delivery: d.DeliveryRate(),
		launchMS: ms(launch), ticks: ticks, stats: d}
}

func runSteadyRoute(r *run) error {
	r.params["n"] = steadyN
	r.params["algorithm"] = "spanning.Algorithm"
	r.params["transport"] = "ChanTransport, lockstep"
	r.params["config"] = fmt.Sprintf("cluster.Config{StalenessTTL: %d}", steadyTTL)
	r.params["start"] = "self-root"
	r.params["idle_ticks"] = steadyIdleTicks
	r.params["packets_per_batch"] = steadyPackets
	heap := newHeapSampler()
	pairsRNG := rand.New(rand.NewSource(r.seed + 2))
	if r.traced {
		return tracedLockstep(r, steadyN, wire.Spanning{}, func(capt *capture) (*lockstep, *cluster.Cluster, float64, float64, error) {
			cl, gw, st, err := steadyCluster(r, capt)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			ls := newLockstep(r, cl, st, quietWindow(cluster.Config{StalenessTTL: steadyTTL}), heap)
			conv, ok := ls.converge(20000)
			if !ok {
				cl.Stop()
				return nil, nil, 0, 0, nil
			}
			idle := ls.idle(steadyIdleTicks)
			if capt != nil {
				rr := routeBatch(ls, gw, routing.UniformPairs(cl.Graph().Nodes(), steadyPackets, pairsRNG), 8*steadyN)
				gatewayLayers(r, rr, rr.ticks)
				checkSpec(r, cl)
				return ls, cl, conv.seconds, median(idle.tickMS), nil
			}
			cl.Stop()
			return ls, nil, conv.seconds, median(idle.tickMS), nil
		})
	}

	var s e2e
	var cl *cluster.Cluster
	var gw *cluster.Gateway
	for k := 0; k < setupReps; k++ {
		if cl != nil {
			cl.Stop()
		}
		var err error
		st := measureSetup(r, func() { cl, gw, _, err = steadyCluster(r, nil) })
		if err != nil {
			return err
		}
		s.setups = append(s.setups, st)
	}
	defer cl.Stop()
	ls := newLockstep(r, cl, nil, quietWindow(cluster.Config{StalenessTTL: steadyTTL}), heap)
	conv, ok := ls.converge(20000)
	if !ok {
		return nil
	}
	s.converged(conv)
	cycles := r.units(steadyFixedS, steadyCycleS, 1)
	r.params["idle_route_cycles"] = cycles
	var kpkt, deliv []float64
	for c := 0; c < cycles; c++ {
		s.idled(ls.idle(steadyIdleTicks))
		rr := routeBatch(ls, gw, routing.UniformPairs(cl.Graph().Nodes(), steadyPackets, pairsRNG), 8*steadyN)
		r.gate.check(rr.delivery == 1, "delivery %.4f on a clean transport", rr.delivery)
		kpkt = append(kpkt, rr.kpktS)
		deliv = append(deliv, rr.delivery)
	}
	checkSpec(r, cl)
	r.record(&s, heap)
	r.extra["route_kpkt_s"] = median(kpkt)
	r.extra["route_batches"] = len(kpkt)
	r.extra["delivery"] = mean(deliv)
	return nil
}

// gatewayLayers records the gateway's per-layer metrics from one batch.
func gatewayLayers(r *run, rr routeResult, ticks int) {
	r.set("gateway.launch_ms", rr.launchMS, 1)
	r.set("gateway.forwards_per_tick", ratio(float64(rr.stats.HopsTotal), float64(ticks)), ticks)
	r.set("gateway.mean_hops", rr.stats.MeanHops(), rr.stats.Delivered)
	r.set("gateway.dropped", float64(rr.stats.Dropped), rr.stats.Launched)
	r.set("gateway.lost", float64(rr.stats.Lost), rr.stats.Launched)
}

// ------------------------------------------------------------- churn-lossy

// churnCluster builds the churn-lossy cluster: the spanning substrate
// from the self-root start, a gateway, and the fault transport.
func churnCluster(r *run, schedule int64, capt *capture) (*cluster.Cluster, *cluster.Gateway, *cluster.FaultTransport, *stepTransport, error) {
	g := genGraph(churnN)
	ft := cluster.NewFaultTransport(cluster.NewChanTransport(), cluster.FaultConfig{
		Seed: r.seed*16 + 3 + schedule, Loss: .02, Dup: .01, Corrupt: .005, Delay: .05})
	tr, st, err := lockstepTransport(ft, capt)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cl, err := cluster.New(g, spanning.Algorithm{}, tr, cluster.Config{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	gw := cluster.NewGateway(cl)
	for _, v := range g.Nodes() {
		cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
	}
	return cl, gw, ft, st, nil
}

// churnEvent is one injected event and the recovery it caused.
type churnEvent struct {
	kind     string
	seconds  float64
	ticks    int
	callMS   float64
	launchMS float64
	delivery float64
}

// churnEvents runs the seeded event schedule: Corrupt, Crash, Join (the
// crashed id, with its original edges), repeated. Each event launches a
// packet cohort and waits for a re-announcement at a higher epoch.
func churnEvents(r *run, ls *lockstep, gw *cluster.Gateway, events int) []churnEvent {
	cl := ls.cl
	rng := rand.New(rand.NewSource(r.seed + 4))
	var victim graph.NodeID
	var edges []graph.Edge
	var evs []churnEvent
	for k := 0; k < events; k++ {
		t0 := time.Now()
		ls.phase = "recover"
		si := r.sp.begin("event")
		ev := churnEvent{kind: []string{"corrupt", "crash", "join"}[k%3]}
		epoch0, tick0 := cl.QuietEpoch(), cl.Ticks()
		switch ev.kind {
		case "corrupt":
			ev.callMS = ms(r.sp.timed("cluster.corrupt", func() { cl.Corrupt(max(1, cl.Nodes()/200), rng) }))
		case "crash":
			var err error
			victim, edges, err = pickVictim(cl.Graph(), rng.Intn)
			if !r.gate.check(err == nil, "churn: %v", err) {
				r.sp.end(si)
				return evs
			}
			ev.callMS = ms(r.sp.timed("cluster.crash", func() { err = cl.Crash(victim) }))
			r.gate.check(err == nil, "crash %d: %v", victim, err)
		case "join":
			var err error
			ev.callMS = ms(r.sp.timed("cluster.join", func() { err = cl.Join(victim, edges) }))
			r.gate.check(err == nil, "join %d: %v", victim, err)
		}
		ls.injected()
		pairs := routing.UniformPairs(cl.Graph().Nodes(), churnCohort, rng)
		ev.launchMS = ms(r.sp.timed("gateway.launch", func() { gw.Launch(pairs) }))
		before := gw.Stats()
		recovered := false
		for j := 0; j < 4000; j++ {
			ls.tick()
			if ls.announced && ls.annEpoch > epoch0 {
				recovered = true
				break
			}
		}
		r.gate.check(recovered, "no re-announcement after %s event %d", ev.kind, k)
		ev.seconds = time.Since(t0).Seconds()
		ev.ticks = int(cl.Ticks() - tick0)
		for j := 0; j < churnDrainTicks && gw.Outstanding() > 0; j++ {
			ls.tick()
		}
		gw.Expire()
		after := gw.Stats()
		launched := len(pairs)
		delivered := after.Delivered - before.Delivered
		r.gate.check(after.Delivered+after.Dropped+after.Lost == after.Launched,
			"gateway ledger after event %d: %+v", k, after)
		ev.delivery = ratio(float64(delivered), float64(launched))
		r.sp.end(si)
		evs = append(evs, ev)
	}
	return evs
}

func runChurnLossy(r *run) error {
	r.params["n"] = churnN
	r.params["algorithm"] = "spanning.Algorithm"
	r.params["transport"] = "FaultTransport{Loss .02, Dup .01, Corrupt .005, Delay .05} over ChanTransport, lockstep"
	r.params["config"] = "cluster.Config{} defaults"
	r.params["start"] = "self-root"
	r.params["idle_ticks"] = churnIdleTicks
	events := r.units(churnFixedS, churnEventS, churnMinEvents)
	r.params["events"] = fmt.Sprintf("%d: Corrupt(n/200), Crash, Join (the crashed id) repeated", events)
	r.params["cohort_packets"] = churnCohort
	heap := newHeapSampler()
	if r.traced {
		return tracedLockstep(r, churnN, wire.Spanning{}, func(capt *capture) (*lockstep, *cluster.Cluster, float64, float64, error) {
			cl, gw, ft, st, err := churnCluster(r, 0, capt)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			ls := newLockstep(r, cl, st, quietWindow(cluster.Config{}), heap)
			ls.lossy = true
			conv, ok := ls.converge(20000)
			if !ok {
				cl.Stop()
				return nil, nil, 0, 0, nil
			}
			idle := ls.idle(churnIdleTicks)
			if capt == nil {
				cl.Stop()
				return ls, nil, conv.seconds, median(idle.tickMS), nil
			}
			ev0, tick0 := cl.Stats(), cl.Ticks()
			evs := churnEvents(r, ls, gw, 6)
			churnLayers(r, cl, ft, gw, evs, ev0, int(cl.Ticks()-tick0))
			checkSpec(r, cl)
			return ls, cl, conv.seconds, median(idle.tickMS), nil
		})
	}

	// The run converges churnConverges clusters, each under its own fault
	// schedule, and keeps the last for the idle window and the events.
	var s e2e
	var cl *cluster.Cluster
	var gw *cluster.Gateway
	var ls *lockstep
	for k := 0; k < churnConverges; k++ {
		if cl != nil {
			cl.Stop()
		}
		var err error
		st := measureSetup(r, func() { cl, gw, _, _, err = churnCluster(r, int64(k), nil) })
		if err != nil {
			return err
		}
		s.setups = append(s.setups, st)
		ls = newLockstep(r, cl, nil, quietWindow(cluster.Config{}), heap)
		ls.lossy = true
		conv, ok := ls.converge(20000)
		if !ok {
			cl.Stop()
			return nil
		}
		s.converged(conv)
	}
	defer cl.Stop()
	s.idled(ls.idle(churnIdleTicks))
	evs := churnEvents(r, ls, gw, events)
	checkSpec(r, cl)
	var recS, recT, deliv []float64
	for _, ev := range evs {
		recS = append(recS, ev.seconds)
		recT = append(recT, float64(ev.ticks))
		deliv = append(deliv, ev.delivery)
	}
	r.record(&s, heap)
	rt, pct := tail(recS)
	r.extra["recover_s_p50"] = median(recS)
	r.extra["recover_s_tail"] = rt
	r.extra["recover_s_tail_pct"] = pct
	r.extra["recover_events"] = len(recS)
	r.extra["recover_ticks_p50"] = median(recT)
	r.extra["delivery"] = mean(deliv)
	r.extra["idle_flaps"] = s.flaps
	r.extra["idle_flap_ticks"] = s.flapTicks
	return nil
}

// churnLayers records the membership, gateway, fault and reliability
// metrics of the traced churn episode.
func churnLayers(r *run, cl *cluster.Cluster, ft *cluster.FaultTransport, gw *cluster.Gateway, evs []churnEvent, before cluster.Stats, ticks int) {
	var join, crash, launch []float64
	for _, ev := range evs {
		launch = append(launch, ev.launchMS)
		switch ev.kind {
		case "join":
			join = append(join, ev.callMS)
		case "crash":
			crash = append(crash, ev.callMS)
		}
	}
	r.set("membership.join_ms", median(join), len(join))
	r.set("membership.crash_ms", median(crash), len(crash))
	st := cl.Stats()
	r.set("membership.evictions", float64(st.NeighborEvictions-before.NeighborEvictions), len(evs))
	r.set("gateway.launch_ms", median(launch), len(launch))
	r.set("gateway.forwards_per_tick", ratio(float64(st.PacketsForwarded-before.PacketsForwarded), float64(ticks)), ticks)
	gs := gw.Stats()
	r.set("gateway.mean_hops", gs.MeanHops(), gs.Delivered)
	r.set("gateway.dropped", float64(gs.Dropped), gs.Launched)
	r.set("gateway.lost", float64(gs.Lost), gs.Launched)
	fs := ft.Stats()
	r.set("transport.fault_lost", float64(fs.Lost), fs.Sent)
	r.set("transport.fault_duplicated", float64(fs.Duplicated), fs.Sent)
	r.set("transport.fault_corrupted", float64(fs.Corrupted), fs.Sent)
	r.set("transport.fault_delayed", float64(fs.Delayed), fs.Sent)
}

// flightWindow measures the repository's flight recorder: matched idle
// windows disarmed then armed, and the time to merge the armed rings.
func flightWindow(r *run, ls *lockstep, ticks int) {
	off := ls.idle(ticks)
	ls.cl.EnableFlightRecorder(flightCap)
	on := ls.idle(ticks)
	r.set("trace.armed_tick_overhead", ratio(median(on.tickMS), median(off.tickMS)), ticks)
	var rings []trace.NodeTrace
	r.sp.timed("cluster.flight_traces", func() { rings = ls.cl.FlightTraces() })
	d := r.sp.timed("trace.merge", func() { trace.Merge(rings) })
	r.set("trace.merge_ms", ms(d), len(rings))
}
