package main

import (
	"bytes"

	"silentspan/internal/cluster"
	"silentspan/internal/wire"
)

// lockstepEpisode runs one episode of a lockstep workload. With a
// capture it runs traced over the tracing transport and returns the
// cluster still built (the caller measures the flight recorder on it,
// then stops it); without one it stops the cluster itself. It returns
// the converge time and the idle window's median tick time, the two
// numbers the tracing overhead compares.
type lockstepEpisode func(capt *capture) (ls *lockstep, cl *cluster.Cluster, convS, idleMS float64, err error)

// tracedLockstep is the traced run of a lockstep workload: one untraced
// episode as the overhead baseline, then one traced episode under the
// CPU profiler, then the codec replay of the frames it captured.
func tracedLockstep(r *run, n int, alg wire.Codec, episode lockstepEpisode) error {
	sp := r.sp
	r.sp = nil // the baseline episode records no spans
	_, _, convU, idleU, err := episode(nil)
	r.sp = sp
	if err != nil {
		return err
	}
	capt := newCapture(alg, n, captureSenders, r.seed)
	prof, err := startProfile(r)
	if err != nil {
		return err
	}
	rt0 := readRT()
	ls, cl, convT, idleT, err := episode(capt)
	rt1 := readRT()
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if cl == nil {
		return nil // the spec gate already failed
	}
	st := cl.Stats()
	tc := ls.st.counts()
	ticks, step, sweep := 0, 0.0, 0.0
	for _, s := range ls.splits {
		ticks += s.ticks
		step += s.stepMS
		sweep += s.sweep
	}
	ft := float64(ticks)
	if c := ls.splits["converge"]; c != nil {
		r.set("cluster.actor_ms_per_tick", c.actorMS/float64(c.ticks), c.ticks)
	}
	if c := ls.splits["idle"]; c != nil {
		r.set("cluster.idle_tick_us_per_node", 1000*c.actorMS/float64(c.ticks)/float64(cl.Nodes()), c.ticks)
	}
	r.set("cluster.sweep_ms_per_tick", sweep/ft, ticks)
	r.set("cluster.allocs_per_frame", ratio(float64(rt1.allocs-rt0.allocs), float64(st.FramesRecv)), st.FramesRecv)
	r.set("cluster.frames_recv_per_tick", float64(st.FramesRecv)/ft, ticks)
	r.set("cluster.applied_ratio", ratio(float64(st.HeartbeatsApplied), float64(st.FramesRecv)), st.FramesRecv)
	r.set("transport.step_ms_per_tick", step/ft, ticks)
	r.set("transport.broadcasts_per_tick", float64(tc.Broadcasts)/ft, ticks)
	r.set("transport.bytes_per_tick", float64(tc.Bytes)/ft, ticks)
	reliabilityLayers(r, st)
	r.set("quiet.announce_lag_ticks", median(ls.annLag), len(ls.annLag))
	r.set("quiet.retractions", float64(ls.retractions), len(ls.annLag))
	r.set("go.gc_cycles", float64(rt1.gcs-rt0.gcs), 1)
	r.extra["traced_ticks"] = ticks

	var buf bytes.Buffer
	r.set("ops.scrape_ms", ms(r.sp.timed("ops.write_prometheus", func() { cl.Metrics().WritePrometheus(&buf) })), 1)
	flightWindow(r, ls, 16)
	cl.Stop()

	r.set("trace.overhead_converge", ratio(convT, convU), 1)
	r.set("trace.overhead_idle_tick", ratio(idleT, idleU), 1)
	r.extra["untraced_converge_s"], r.extra["traced_converge_s"] = convU, convT
	r.extra["untraced_idle_tick_ms_p50"], r.extra["traced_idle_tick_ms_p50"] = idleU, idleT
	r.notApplicable("lockstep transport: no UDP sockets", "transport.udp_broadcast_us")
	notApplicableCommon(r, r.workload)
	replayCodec(r, capt)
	return reduceProfile(r, prof)
}

// reduceProfile records the profile's per-layer shares; a toolchain
// without pprof leaves them unmeasured rather than failing the run.
func reduceProfile(r *run, prof *cpuProfile) error {
	if err := prof.reduce(r); err != nil {
		r.extra["profile_error"] = err.Error()
	}
	return nil
}

// reliabilityLayers records the delta protocol's repair counters.
func reliabilityLayers(r *run, st cluster.Stats) {
	r.set("cluster.resyncs", float64(st.ResyncsSent), st.FramesRecv)
	r.set("cluster.delta_misses", float64(st.DeltaMisses), st.FramesRecv)
	r.set("cluster.rx_rejected_ratio", ratio(float64(st.RxRejected), float64(st.FramesRecv)), st.FramesRecv)
	r.set("cluster.anchor_share", ratio(float64(st.AnchorsSent), float64(st.AnchorsSent+st.DeltasSent)), st.AnchorsSent+st.DeltasSent)
}

// tracedServe is the traced run of serve-udp: an untraced baseline
// episode, then a traced one under the profiler, then the replay.
func tracedServe(r *run, heap *heapSampler) error {
	sp := r.sp
	r.sp = nil
	base, err := serveEpisodeRun(r, heap, nil)
	r.sp = sp
	if err != nil {
		return err
	}
	capt := newCapture(wire.Spanning{}, serveN, captureSenders, r.seed)
	prof, err := startProfile(r)
	if err != nil {
		return err
	}
	rt0 := readRT()
	ep, err := serveEpisodeRun(r, heap, capt)
	rt1 := readRT()
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	st := ep.final
	ft := ep.clockTicks
	r.set("cluster.allocs_per_frame", ratio(float64(rt1.allocs-rt0.allocs), float64(st.FramesRecv)), st.FramesRecv)
	r.set("cluster.frames_recv_per_tick", ratio(float64(st.FramesRecv), ft), int(ft))
	r.set("cluster.applied_ratio", ratio(float64(st.HeartbeatsApplied), float64(st.FramesRecv)), st.FramesRecv)
	r.set("transport.broadcasts_per_tick", ratio(float64(ep.tc.Broadcasts), ft), int(ft))
	r.set("transport.bytes_per_tick", ratio(float64(ep.tc.Bytes), ft), int(ft))
	r.set("transport.udp_broadcast_us", ep.bcastUS, int(ep.tc.Broadcasts))
	reliabilityLayers(r, st)
	r.set("quiet.announce_lag_ticks", float64(ep.conv.ticks-ep.conv.stabilizeTicks), 1)
	retr := 0.0
	if ep.retracted {
		retr = 1
	}
	r.set("quiet.retractions", retr, 1)
	r.set("ops.scrape_ms", median(ep.scrapeMS), len(ep.scrapeMS))
	r.set("go.gc_cycles", float64(rt1.gcs-rt0.gcs), 1)
	r.set("trace.overhead_converge", ratio(ep.conv.seconds, base.conv.seconds), 1)
	r.set("trace.overhead_idle_tick", ratio(median(ep.idle.tickMS), median(base.idle.tickMS)), 1)
	r.extra["untraced_converge_s"], r.extra["traced_converge_s"] = base.conv.seconds, ep.conv.seconds
	r.extra["untraced_idle_cpu_per_s"], r.extra["traced_idle_cpu_per_s"] = base.idle.cpuPerS, ep.idle.cpuPerS
	const free = "free-running Serve: no lockstep Tick or Step to split"
	r.notApplicable(free, "cluster.actor_ms_per_tick", "cluster.idle_tick_us_per_node",
		"cluster.sweep_ms_per_tick", "transport.step_ms_per_tick", "trace.armed_tick_overhead", "trace.merge_ms")
	notApplicableCommon(r, "serve-udp")
	replayCodec(r, capt)
	return reduceProfile(r, prof)
}

// notApplicableCommon marks the layers a workload does not exercise.
func notApplicableCommon(r *run, workload string) {
	if workload != "churn-lossy" {
		r.notApplicable("clean transport: no fault injection", "transport.fault_lost",
			"transport.fault_duplicated", "transport.fault_corrupted", "transport.fault_delayed")
		r.notApplicable("no membership events in this workload", "membership.join_ms",
			"membership.crash_ms", "membership.evictions")
	}
	if workload == "cold-bfs" || workload == "serve-udp" {
		r.notApplicable("no gateway in this workload", "gateway.launch_ms", "gateway.forwards_per_tick",
			"gateway.mean_hops", "gateway.dropped", "gateway.lost")
	}
}
