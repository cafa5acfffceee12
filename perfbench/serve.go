package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/spanning"
)

// serveEpisode is one serve-udp episode: build over loopback UDP, Serve,
// wait for the announcement, sit idle while scraping /metrics once a
// second, stop, check. Ticks are the local ticks of the lowest-id node,
// read through the in-process admin hub.
type serveEpisode struct {
	setup     setupTime
	conv      convergeResult
	idle      idleResult
	scrapeMS  []float64
	bcastUS   float64
	retracted bool
	// Traced episodes also keep the final counters and the clock node's
	// total ticks, the base of the per-tick layer metrics.
	final      cluster.Stats
	clockTicks float64
	tc         transportCounts
}

func serveConfig() cluster.Config {
	return cluster.Config{Interval: serveInterval, HeartbeatEvery: 2, StalenessTTL: serveTTL}
}

// serveCluster builds the serve-udp cluster over fresh loopback sockets
// (through the tracing transport when capt is set). The caller closes
// the UDP transport.
func serveCluster(r *run, capt *capture) (*cluster.Cluster, *cluster.UDPTransport, *traceTransport, error) {
	g := genGraph(serveN)
	udp := cluster.NewUDPTransport()
	var tr cluster.Transport = udp
	var tt *traceTransport
	if capt != nil {
		tt = newTraceTransport(udp, capt)
		tr = tt
	}
	cl, err := cluster.New(g, spanning.Algorithm{}, tr, serveConfig())
	if err != nil {
		udp.Close()
		return nil, nil, nil, err
	}
	cl.InitArbitrary(rand.New(rand.NewSource(r.seed + 1)))
	return cl, udp, tt, nil
}

func serveEpisodeRun(r *run, heap *heapSampler, capt *capture) (serveEpisode, error) {
	var ep serveEpisode
	var cl *cluster.Cluster
	var udp *cluster.UDPTransport
	var tt *traceTransport
	var err error
	ep.setup = measureSetup(r, func() { cl, udp, tt, err = serveCluster(r, capt) })
	if err != nil {
		return ep, err
	}
	defer udp.Close()
	hub := cl.AdminHub()
	clock := cl.Graph().MinID()
	localTick := func() int {
		s, err := hub.Self(clock)
		if err != nil {
			return 0
		}
		return int(s.LocalTick)
	}

	settle()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	t0, c0 := time.Now(), cpuSeconds()
	go func() { served <- cl.Serve(ctx) }()
	stop := func() error {
		cancel()
		err := <-served
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return err
	}

	// Converge: poll the announcement, the register-write counter and
	// the clock node's local tick.
	ci := r.sp.begin("converge")
	lastWrites, stabTick := -1, 0
	announced := false
	for time.Since(t0) < 60*time.Second {
		w := cl.Stats().RegisterWrites
		tick := localTick()
		if w != lastWrites {
			lastWrites, stabTick = w, tick
		}
		heap.sample()
		if cl.QuietAnnounced() {
			announced = true
			ep.conv = convergeResult{seconds: time.Since(t0).Seconds(), cpuSeconds: cpuSeconds() - c0,
				ticks: tick, stabilizeTicks: stabTick}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.sp.end(ci)
	if !r.gate.spec(announced, "serve: no announcement within 60 s") {
		return ep, stop()
	}

	// Idle: every 250 ms, sample the clock node's tick and the process
	// CPU time; scrape /metrics once a second.
	ii := r.sp.begin("idle")
	st0 := cl.Stats()
	var tc0 transportCounts
	if tt != nil {
		tc0 = tt.counts()
	}
	w0, k0, cpu0 := time.Now(), localTick(), cpuSeconds()
	prevW, prevK, prevC := w0, k0, cpu0
	nextScrape := w0.Add(time.Second)
	for time.Since(w0) < serveIdle {
		time.Sleep(250 * time.Millisecond)
		now, k, c := time.Now(), localTick(), cpuSeconds()
		if k > prevK {
			ep.idle.tickMS = append(ep.idle.tickMS, ms(now.Sub(prevW))/float64(k-prevK))
			ep.idle.tickCPU = append(ep.idle.tickCPU, 1000*(c-prevC)/float64(k-prevK))
		}
		prevW, prevK, prevC = now, k, c
		heap.sample()
		if !cl.QuietAnnounced() {
			ep.retracted = true
		}
		if now.After(nextScrape) {
			var buf bytes.Buffer
			ep.scrapeMS = append(ep.scrapeMS, ms(r.sp.timed("ops.write_prometheus", func() { cl.Metrics().WritePrometheus(&buf) })))
			r.gate.check(buf.Len() > 0, "empty /metrics exposition")
			nextScrape = nextScrape.Add(time.Second)
		}
	}
	ticks := float64(prevK - k0)
	ep.idle.cpuPerS = (prevC - cpu0) / prevW.Sub(w0).Seconds()
	ep.idle.bytes = float64(cl.Stats().BytesSent - st0.BytesSent)
	ep.idle.nodeTicks = ticks * float64(cl.Nodes())
	if tt != nil {
		ep.tc = tt.counts()
		d := ep.tc.minus(tc0)
		ep.bcastUS = ratio(float64(d.BcastNS)/1e3, float64(d.Broadcasts))
		ep.final, ep.clockTicks = cl.Stats(), float64(prevK)
	}
	r.sp.end(ii)
	r.gate.check(!ep.retracted, "serve: announcement retracted during the idle window")
	if err := stop(); err != nil {
		return ep, err
	}
	checkSpec(r, cl)
	return ep, nil
}

func runServeUDP(r *run) error {
	cfg := serveConfig()
	r.params["n"] = serveN
	r.params["algorithm"] = "spanning.Algorithm"
	r.params["transport"] = "UDPTransport on loopback, Serve (free-running)"
	r.params["config"] = fmt.Sprintf("Interval %s, HeartbeatEvery %d, StalenessTTL %d (sstsim -serve defaults)", cfg.Interval, cfg.HeartbeatEvery, cfg.StalenessTTL)
	r.params["start"] = "InitArbitrary"
	r.params["idle_window"] = serveIdle.String()
	r.params["ticks"] = "local ticks of the lowest-id node, read through the in-process admin hub"
	heap := newHeapSampler()
	if r.traced {
		return tracedServe(r, heap)
	}
	var s e2e
	// A build takes milliseconds here, so the run adds builds that are
	// torn down unused to the one per episode, for a steadier median.
	for k := 0; k < serveSetupReps; k++ {
		var udp *cluster.UDPTransport
		var err error
		st := measureSetup(r, func() { _, udp, _, err = serveCluster(r, nil) })
		if err != nil {
			return err
		}
		s.setups = append(s.setups, st)
		udp.Close()
	}
	episodes := r.units(0, serveEpisodeS, 1)
	r.params["episodes"] = episodes
	var cpuS, scrape []float64
	for k := 0; k < episodes; k++ {
		ep, err := serveEpisodeRun(r, heap, nil)
		if err != nil {
			return err
		}
		if ep.conv.ticks == 0 {
			break
		}
		s.setups = append(s.setups, ep.setup)
		s.converged(ep.conv)
		s.idled(ep.idle)
		cpuS = append(cpuS, ep.idle.cpuPerS)
		scrape = append(scrape, ep.scrapeMS...)
	}
	r.record(&s, heap)
	r.extra["serve_cpu_per_s"] = median(cpuS)
	r.extra["scrape_ms_p50"] = median(scrape)
	return nil
}
