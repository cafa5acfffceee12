// Package cluster executes the repository's self-stabilizing algorithms
// over real transports instead of the simulator: each node is an
// independent actor owning only its local register and a cache of its
// neighbors' last heartbeat states, exchanged as
// checksummed wire frames (internal/wire) over a pluggable Transport.
//
// This is the classic shared-memory→message-passing transform: a node
// periodically broadcasts its register; neighbors cache the last
// received copy; the transition function δ is evaluated against the
// cache, presented to the unmodified algorithm through the
// runtime.NewView adapter seam. Stale cache entries (no heartbeat
// within StalenessTTL) read as nil — unknown, hence locally
// inconsistent — so a node never acts on information older than the
// staleness bound. The transform preserves silence (stabilized
// clusters exchange only constant-size keep-alive heartbeats, and
// registers stop changing) and the Θ(log n) register bound (a frame
// carries one gamma-coded register plus a constant envelope).
//
// Two execution modes share the node logic:
//
//   - Lockstep (Tick/RunUntilQuiet, over a Stepper transport such as
//     ChanTransport): GOMAXPROCS shard workers run the nodes' ticks
//     concurrently between two barriers; frames travel at the barrier
//     in deterministic order.
//     Same seed ⇒ identical execution trace, which is what the
//     certification campaigns and the determinism test rely on.
//   - Free-running (Serve, over an async transport such as
//     UDPTransport): every node is a goroutine looping on its own timer
//     and its endpoint's notify channel, with no global coordination —
//     the deployment shape.
//
// A Gateway (gateway.go) rides on top, maintaining a
// routing.LiveLabeler over the live registers and carrying routed
// packets hop-by-hop as data frames through the same transport.
package cluster

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/runtime"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// Config parameterizes a cluster. Zero values take the documented
// defaults.
type Config struct {
	// HeartbeatEvery is the keep-alive period in ticks: a node
	// rebroadcasts its register every this many ticks even without a
	// change (default 1; changes always broadcast immediately).
	HeartbeatEvery int
	// StalenessTTL is the cache expiry in local ticks: a neighbor not
	// heard from for longer reads as unknown (nil state). Must comfortably
	// exceed HeartbeatEvery plus the worst transport delay, or live
	// neighbors flap in and out of existence (default 12).
	StalenessTTL int
	// MaxHold is a parked packet's stall budget in ticks before it is
	// dropped (default 256 — labelings heal within a convergence).
	MaxHold int
	// Interval is the free-running tick period (default 2ms).
	Interval time.Duration
	// BackoffCap bounds the keep-alive back-off in ticks: while a node's
	// register is quiet its heartbeat gap doubles per keep-alive up to
	// this cap. The default is max(HeartbeatEvery, (StalenessTTL−2)/4),
	// so a peer's observed age stays under StalenessTTL even through
	// three consecutive lost keep-alives; fill hard-clamps any explicit
	// value to (StalenessTTL−2)/2 (one tolerated loss) — beyond that a
	// merely quiet neighbor would flap stale.
	BackoffCap int
	// MinGap is the minimum ticks between frames triggered by register
	// changes (default 1): a burst of moves coalesces instead of
	// broadcasting per change.
	MinGap int
	// FullEvery re-anchors the delta stream with a self-contained frame
	// every this many broadcasts (default 16), bounding how long a
	// receiver that lost the anchor waits before the stream self-heals
	// even without its resync request getting through.
	FullEvery int
	// QuietWindow is the termination detector's local-quiet window in
	// ticks: a node claims its own silence only after this many ticks
	// without a register write or membership event. The default is
	// StalenessTTL — comfortably above the freshness-pull repair horizon
	// (~1.5·BackoffCap), so a lost frame's delayed repair write cannot
	// race an already-launched quiet claim (DESIGN.md §13).
	QuietWindow int
	// DisableDelta reverts to classic full-state heartbeat frames —
	// the pre-delta wire behavior, kept for baselines and bisection.
	DisableDelta bool
	// DisableBackoff pins the keep-alive gap to HeartbeatEvery — the
	// pre-cadence behavior, kept for baselines and bisection.
	DisableBackoff bool
}

func (c *Config) fill() {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 1
	}
	if c.StalenessTTL == 0 {
		c.StalenessTTL = 12
	}
	if c.MaxHold == 0 {
		c.MaxHold = 256
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = max(c.HeartbeatEvery, (c.StalenessTTL-2)/4)
	}
	// Safety clamp: a quiet sender emits one keep-alive per BackoffCap
	// ticks, and the receiver's view of it must never age past the TTL
	// even if one keep-alive is lost (observed age ≈ 2·gap at the loss).
	if hard := (c.StalenessTTL - 2) / 2; c.BackoffCap > hard {
		c.BackoffCap = hard
	}
	c.BackoffCap = max(c.BackoffCap, c.HeartbeatEvery, 1)
	if c.MinGap == 0 {
		c.MinGap = 1
	}
	if c.FullEvery == 0 {
		c.FullEvery = 16
	}
	if c.QuietWindow == 0 {
		c.QuietWindow = c.StalenessTTL
	}
}

// Stats aggregates the cluster's transport activity. It reads atomic
// per-node counters, so it is safe to call at any time — including
// concurrently with Tick or Serve.
type Stats struct {
	FramesSent, BytesSent  int
	FramesRecv, RxRejected int
	HeartbeatsApplied      int
	RegisterWrites         int
	StalenessExpiries      int
	PacketsForwarded       int
	PacketsDropped         int
	// Delta-protocol accounting (all zero with DisableDelta).
	AnchorsSent int
	DeltasSent  int
	ResyncsSent int
	DeltaMisses int
	// Membership accounting (all zero in a churn-free run).
	AdvertsSent       int
	NeighborEvictions int
	Joins             int
	Leaves            int
	Crashes           int
}

// Cluster binds a graph, an algorithm, a wire codec, and a transport
// into a message-passing deployment of the algorithm.
type Cluster struct {
	g     *graph.Graph
	d     *graph.Dense
	alg   runtime.Algorithm
	codec wire.Codec
	tr    Transport
	step  Stepper // nil when the transport is async-only
	cfg   Config

	// net is the membership engine: a runtime.Network over the same
	// graph whose registers stay untouched — the cluster uses only its
	// validated topology mutators (AddNode/RemoveNode/AddEdge/
	// RemoveEdge) and their TopoEvent stream, which the gateway's
	// labeler subscribes to. Mirror() builds fresh networks per call;
	// this one persists so slot recycling and event fan-out match the
	// simulator's churn semantics exactly.
	net *runtime.Network

	// memMu guards the membership view: the nodes slice (nil-holed at
	// vacated dense slots), the seq floors of departed incarnations, and
	// the admin server set. Read-locked for every iteration (ticks,
	// stats, scrapes, snapshots); write-locked by Join/Leave/Crash/
	// AddEdge/RemoveEdge. Lock order is memMu → (nd.mu | gw.labMu);
	// nothing acquires memMu while holding either.
	memMu sync.RWMutex
	nodes []*Node // dense-slot order; nil = vacated slot
	// seqFloor remembers the last heartbeat seq of every departed id: a
	// rejoining incarnation opens its counter above it, so old in-flight
	// frames can never shadow the rejoiner behind receivers' duplicate
	// filters.
	seqFloor map[graph.NodeID]uint64
	admin    *AdminServers // non-nil once ServeAdmin ran

	gw *Gateway
	// stateDirty marks out-of-band register writes (SetState,
	// InitArbitrary, Corrupt) so the next tick refreshes the gateway
	// even if no δ evaluation changed anything.
	stateDirty bool

	// Lockstep clock. tick/lastChangeTick/changedLast are atomic so the
	// metrics scrape can read convergence gauges while a tick is in
	// flight.
	tick           atomic.Uint64
	lastChangeTick atomic.Uint64
	changedLast    atomic.Int64

	// Free-running coordination: Join/Leave/Crash spawn and retire
	// actors mid-Serve. serving is flipped under memMu; serveWG carries
	// one unit per live actor plus a sentinel held by Serve itself.
	serving  bool
	serveCtx context.Context
	serveWG  sync.WaitGroup

	// Membership accounting. departed folds retired nodes' final
	// counters so cluster totals stay monotone across churn (a scrape
	// must never see ss_cluster_frames_sent_total decrease because a
	// node left).
	joins, leaves, crashes atomic.Int64
	departed               nodeCounters

	// Termination-detector surface (quiet.go). annRoots is the set of
	// currently announcing tree roots with their announced epochs;
	// announced/annEpoch are its atomic projection for gauges and
	// QuietAnnounced; quietCh carries aggregate transitions. regWrites
	// and lastWriteNS mirror every register write (δ-driven and
	// out-of-band) into one counter and one wall-clock stamp, so the
	// Serve-mode gateway poller and quiet gauge need no O(n) sweeps.
	annMu       sync.Mutex
	annRoots    map[graph.NodeID]uint64
	announced   atomic.Bool
	annEpoch    atomic.Uint64
	quietCh     chan QuietEvent
	regWrites   atomic.Int64
	lastWriteNS atomic.Int64

	// metrics is the cluster's operational registry: counters and
	// gauges over the hot paths, scraped through the admin plane's
	// /metrics endpoint or snapshot directly.
	metrics      *ops.Registry
	hbCadence    *ops.Histogram
	frameBytes   *ops.Histogram
	ticksToQuiet *ops.Gauge

	// trace, when enabled, folds every register change into a running
	// hash — the determinism witness.
	trace hash.Hash64

	// Flight-recorder surface (trace.go): flightCap > 0 arms per-node
	// rings (joiners get one on admit); departedTr retains retired
	// nodes' final rings, bounded by departedTraceCap. Both under memMu.
	flightCap  int
	departedTr []trace.NodeTrace
}

// New builds a cluster over g running alg, opening one endpoint per
// node on tr. The codec is derived from the algorithm. Membership is
// live: Join, Leave, and Crash reshape the cluster at any point,
// including mid-Serve (see membership.go and DESIGN.md §12).
func New(g *graph.Graph, alg runtime.Algorithm, tr Transport, cfg Config) (*Cluster, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("cluster: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("cluster: graph not connected")
	}
	codec, err := wire.ForAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	net, err := runtime.NewNetwork(g, alg)
	if err != nil {
		return nil, err
	}
	d := g.Dense()
	st, _ := tr.(Stepper)
	c := &Cluster{g: g, d: d, alg: alg, codec: codec, tr: tr, step: st, cfg: cfg,
		net: net, seqFloor: make(map[graph.NodeID]uint64),
		annRoots: make(map[graph.NodeID]uint64),
		quietCh:  make(chan QuietEvent, 16)}
	c.cfg.fill()
	c.lastWriteNS.Store(time.Now().UnixNano())
	for i := 0; i < d.Slots(); i++ {
		if !d.LiveAt(i) {
			return nil, fmt.Errorf("cluster: graph has vacated dense slots; coalesce before clustering")
		}
		ep, err := tr.Open(d.ID(i))
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, c.newMember(d.ID(i), i, ep))
	}
	c.registerMetrics()
	return c, nil
}

// newMember builds the node for dense slot i with a cloned neighbor
// row (the dense rows mutate in place under churn).
func (c *Cluster) newMember(id graph.NodeID, i int, ep Endpoint) *Node {
	neighbors := append([]graph.NodeID(nil), c.d.NeighborIDs(i)...)
	weights := append([]graph.Weight(nil), c.d.Weights(i)...)
	nd := newNode(id, i, c.d.N(), neighbors, weights, ep, c.codec, c.alg)
	nd.noteAnn = c.noteAnnounce
	nd.writeCount = &c.regWrites
	nd.writeClock = &c.lastWriteNS
	return nd
}

// registerMetrics builds the cluster's operational registry. Counters
// over per-node activity are func-backed: the hot paths already
// maintain atomic per-node counters, and the scrape sums them on
// demand — a /metrics read is therefore exactly consistent (±0) with
// Stats(), because both read the same atomics.
func (c *Cluster) registerMetrics() {
	reg := ops.NewRegistry()
	c.metrics = reg
	sum := func(field func(*nodeCounters) *atomic.Int64) func() float64 {
		return func() float64 {
			c.memMu.RLock()
			defer c.memMu.RUnlock()
			t := field(&c.departed).Load()
			for _, nd := range c.nodes {
				if nd == nil {
					continue
				}
				t += field(&nd.stats).Load()
			}
			return float64(t)
		}
	}
	reg.GaugeFunc("ss_cluster_nodes", "Live cluster size.", nil,
		func() float64 {
			c.memMu.RLock()
			defer c.memMu.RUnlock()
			return float64(c.d.N())
		})
	reg.CounterFunc("ss_cluster_joins_total", "Nodes joined into the running cluster.", nil,
		func() float64 { return float64(c.joins.Load()) })
	reg.CounterFunc("ss_cluster_leaves_total", "Nodes retired cooperatively (goodbye broadcast).", nil,
		func() float64 { return float64(c.leaves.Load()) })
	reg.CounterFunc("ss_cluster_crashes_total", "Nodes killed without a goodbye.", nil,
		func() float64 { return float64(c.crashes.Load()) })
	reg.CounterFunc("ss_cluster_adverts_sent_total", "Membership beacons broadcast by (re)joining nodes.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.AdvertsSent }))
	reg.CounterFunc("ss_cluster_neighbor_evictions_total", "Neighbor cache entries evicted by goodbyes or reset by adverts.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.NeighborEvictions }))
	reg.CounterFunc("ss_cluster_frames_sent_total", "Frames sent by all nodes (heartbeats + data).", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.FramesSent }))
	reg.CounterFunc("ss_cluster_bytes_sent_total", "Payload bytes sent by all nodes.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.BytesSent }))
	reg.CounterFunc("ss_cluster_frames_received_total", "Frames delivered to all nodes.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.FramesRecv }))
	reg.CounterFunc("ss_cluster_frames_rejected_total", "Frames rejected (checksum, codec, non-neighbor, stale seq).", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.RxRejected }))
	reg.CounterFunc("ss_cluster_heartbeats_applied_total", "Heartbeats accepted into neighbor caches.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.HeartbeatsApplied }))
	reg.CounterFunc("ss_cluster_register_writes_total", "δ-driven register changes (moves) across all nodes; flat once silent.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.RegisterWrites }))
	reg.CounterFunc("ss_cluster_staleness_expiries_total", "Neighbor-cache entries that expired after being heard.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.StalenessExpiries }))
	reg.CounterFunc("ss_cluster_packets_forwarded_total", "Routed packet hops forwarded by all nodes.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.PacketsForwarded }))
	reg.CounterFunc("ss_cluster_packets_dropped_total", "Routed packets dropped at nodes (hop/stall budget).", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.PacketsDropped }))
	reg.CounterFunc("ss_cluster_anchor_frames_total", "Self-contained (anchor) heartbeat frames broadcast.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.AnchorsSent }))
	reg.CounterFunc("ss_cluster_delta_frames_total", "Delta heartbeat frames broadcast.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.DeltasSent }))
	reg.CounterFunc("ss_cluster_resync_frames_total", "Re-anchor requests sent.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.ResyncsSent }))
	reg.CounterFunc("ss_cluster_delta_misses_total", "Received deltas dropped for want of their anchor.", nil,
		sum(func(s *nodeCounters) *atomic.Int64 { return &s.DeltaMisses }))
	reg.GaugeFunc("ss_cluster_ticks", "Lockstep ticks driven so far.", nil,
		func() float64 { return float64(c.tick.Load()) })
	reg.GaugeFunc("ss_cluster_changed_last_tick", "Registers that changed in the last lockstep tick (0 = converging toward silence).", nil,
		func() float64 { return float64(c.changedLast.Load()) })
	reg.GaugeFunc("ss_cluster_quiet_ticks", "Consecutive ticks without a register change (wall-clock derived in Serve mode).", nil,
		c.quietTicksGauge)
	reg.GaugeFunc("ss_cluster_detected_quiet", "In-band termination detector: 1 while a tree root announces cluster-wide quiet.", nil,
		func() float64 {
			if c.announced.Load() {
				return 1
			}
			return 0
		})
	c.ticksToQuiet = reg.Gauge("ss_cluster_ticks_to_quiet",
		"Ticks the last RunUntilQuiet consumed to reach quiet (0 until reached).", nil)
	c.hbCadence = reg.Histogram("ss_cluster_heartbeat_interval_ticks",
		"Local ticks between consecutive heartbeat broadcasts per node.", nil,
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	c.frameBytes = reg.Histogram("ss_cluster_frame_bytes",
		"Encoded size of each distinct frame sent (one observation per broadcast, not per fan-out copy).", nil,
		[]float64{8, 16, 24, 32, 48, 64, 128})
	for _, nd := range c.nodes {
		nd.hbCadence = c.hbCadence
		nd.frameBytes = c.frameBytes
	}
	if m, ok := c.tr.(interface{ RegisterMetrics(*ops.Registry) }); ok {
		m.RegisterMetrics(reg)
	}
}

// Metrics returns the cluster's operational registry — served at
// /metrics by the admin plane, snapshot-able for benches.
func (c *Cluster) Metrics() *ops.Registry { return c.metrics }

// Graph returns the underlying graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Algorithm returns the algorithm the cluster runs.
func (c *Cluster) Algorithm() runtime.Algorithm { return c.alg }

// Codec returns the wire codec in use.
func (c *Cluster) Codec() wire.Codec { return c.codec }

// Nodes returns the live node count.
func (c *Cluster) Nodes() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.d.N()
}

// Node returns the actor for id, or nil.
func (c *Cluster) Node(id graph.NodeID) *Node {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.nodeLocked(id)
}

// nodeLocked resolves id to its live actor; caller holds memMu.
func (c *Cluster) nodeLocked(id graph.NodeID) *Node {
	i, ok := c.d.IndexOf(id)
	if !ok || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// State returns node id's current register content.
func (c *Cluster) State(id graph.NodeID) runtime.State {
	nd := c.Node(id)
	if nd == nil {
		return nil
	}
	return nd.State()
}

// SetState writes node id's register directly — initial configurations
// and fault injection. Call only between ticks (or before Serve).
func (c *Cluster) SetState(id graph.NodeID, s runtime.State) {
	nd := c.Node(id)
	if nd == nil {
		panic(fmt.Sprintf("cluster: unknown node %d", id))
	}
	nd.setState(s)
	c.stateDirty = true
}

// InitArbitrary fills every register with an arbitrary state drawn
// from the algorithm — the adversarial initialization of the model.
// Neighbor caches start empty regardless: a booting cluster knows
// nothing about its neighbors until heartbeats arrive.
func (c *Cluster) InitArbitrary(rng *rand.Rand) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nil, nd.peers)
		nd.setState(c.alg.ArbitraryState(rng, v))
	}
	c.stateDirty = true
}

// Corrupt overwrites k distinct registers with arbitrary states drawn
// from the algorithm — transient faults striking a live deployment.
// Call between ticks. It returns the victims in activation order.
func (c *Cluster) Corrupt(k int, rng *rand.Rand) []graph.NodeID {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	live := make([]*Node, 0, len(c.nodes))
	for _, nd := range c.nodes {
		if nd != nil {
			live = append(live, nd)
		}
	}
	if k > len(live) {
		k = len(live)
	}
	victims := make([]graph.NodeID, 0, k)
	for _, i := range rng.Perm(len(live))[:k] {
		nd := live[i]
		v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nd.State(), nd.peers)
		nd.setState(c.alg.ArbitraryState(rng, v))
		victims = append(victims, nd.id)
	}
	c.stateDirty = true
	return victims
}

// EnableTrace arms the execution-trace hash: every subsequent register
// change (tick, slot, rendered state) folds into it in slot order.
func (c *Cluster) EnableTrace() {
	c.trace = fnv.New64a()
}

// TraceSum returns the current trace hash (zero when tracing is off).
func (c *Cluster) TraceSum() uint64 {
	if c.trace == nil {
		return 0
	}
	return c.trace.Sum64()
}

// tickChunk is the number of consecutive dense slots a shard worker
// claims per grab: large enough that the shared cursor is touched once
// per tens of microseconds of node work, small enough that the last
// chunks balance across workers.
const tickChunk = 16

// Stop is kept for callers that bracket a cluster's lifetime: lockstep
// ticks run on short-lived shard workers and Serve retires its actors
// when its context ends, so there is nothing left to stop. Ticking
// after Stop is fine.
func (c *Cluster) Stop() {}

// Tick runs one lockstep round: every live node executes its tick on a
// shard worker, then the transport delivers what they sent, in
// deterministic order. Requires a Stepper transport.
func (c *Cluster) Tick() {
	if c.step == nil {
		panic("cluster: Tick over a transport with no lockstep Step; use Serve")
	}
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	tick := c.tick.Add(1)
	c.runShards(tick)
	c.step.Step(tick)
	changed := int64(0)
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if nd.changed {
			changed++
			if c.trace != nil {
				fmt.Fprintf(c.trace, "%d:%d:%s;", tick, nd.slot, nd.self)
			}
		}
	}
	c.changedLast.Store(changed)
	if changed > 0 {
		c.lastChangeTick.Store(tick)
	}
	// The labeling only moves when some register did: a quiet cluster
	// skips the O(n) register sweep entirely instead of re-reading every
	// node per tick forever.
	if c.gw != nil && (changed > 0 || c.stateDirty) {
		c.gw.refresh()
		c.stateDirty = false
	}
}

// runShards executes one round's node ticks on up to GOMAXPROCS
// workers — the calling goroutine plus short-lived helpers — each
// claiming tickChunk-slot runs of c.nodes from a shared cursor until
// every live node has ticked exactly once. Which worker runs which node
// cannot change the round: a node reads only frames delivered at the
// previous barrier (and the gateway labeling refreshed there) and
// writes only its own register and its own send buffers, which the
// transport merges in node order at the next Step.
// Caller holds memMu.
func (c *Cluster) runShards(tick uint64) {
	nodes := c.nodes
	var cursor atomic.Int64
	work := func() {
		for {
			hi := int(cursor.Add(tickChunk))
			lo := hi - tickChunk
			if lo >= len(nodes) {
				return
			}
			for _, nd := range nodes[lo:min(hi, len(nodes))] {
				if nd != nil {
					nd.tick(tick, &c.cfg, c.gw)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for range min(goruntime.GOMAXPROCS(0), (len(nodes)+tickChunk-1)/tickChunk) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Ticks returns the lockstep tick count so far.
func (c *Cluster) Ticks() uint64 { return c.tick.Load() }

// ChangedLastTick returns how many registers changed in the last tick.
func (c *Cluster) ChangedLastTick() int { return int(c.changedLast.Load()) }

// RunUntilQuiet ticks until no register has changed for quiet
// consecutive ticks — the message-passing image of the paper's silence
// — or until maxTicks. It returns the ticks consumed and whether quiet
// was reached.
//
// quiet must exceed the heartbeat period plus the transport's worst
// delivery delay: then every frame still in flight was sent while all
// registers already held their current values, so it carries a state
// the receiver's cache either has (newer seq, equal content — a no-op
// update) or has superseded, and stability is a true fixpoint. The
// keep-alive heartbeats themselves never stop — silence means registers
// and caches stop changing, not that links go dark.
func (c *Cluster) RunUntilQuiet(maxTicks, quiet int) (int, bool) {
	// Clamp the window against the effective keep-alive cadence: with
	// back-off enabled a quiet sender's gap legitimately grows to
	// BackoffCap, so a window at or under it could declare quiet while a
	// lost-keep-alive repair (staleness expiry → rewrite) is still
	// pending between two backed-off frames.
	eff := c.cfg.HeartbeatEvery
	if !c.cfg.DisableBackoff {
		eff = c.cfg.BackoffCap
	}
	if quiet <= eff {
		quiet = eff + 1
	}
	// A new run invalidates the previous run's convergence measurement:
	// hold 0 until (and unless) this run reaches quiet, so a scrape
	// during re-stabilization never reports the old run's value.
	c.ticksToQuiet.Set(0)
	start := c.tick.Load()
	for c.tick.Load()-start < uint64(maxTicks) {
		c.Tick()
		if c.tick.Load()-c.lastChangeTick.Load() >= uint64(quiet) {
			ticks := int(c.tick.Load() - start)
			c.ticksToQuiet.Set(int64(ticks))
			return ticks, true
		}
	}
	return int(c.tick.Load() - start), false
}

// Serve runs the cluster free-running until ctx is cancelled: every
// node loops on its own timer and its endpoint's notify channel — no
// global coordination, the deployment shape. Requires endpoints with a
// notify channel (async transports such as UDPTransport).
func (c *Cluster) Serve(ctx context.Context) error {
	c.memMu.Lock()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if nd.ep.Notify() == nil {
			c.memMu.Unlock()
			return fmt.Errorf("cluster: transport endpoint of node %d has no notify channel; use Tick", nd.id)
		}
	}
	c.serving = true
	c.serveCtx = ctx
	// The sentinel keeps serveWG's counter positive for the whole
	// serving window, so Join may Add concurrently with the final Wait.
	c.serveWG.Add(1)
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		c.spawnServe(nd)
	}
	c.memMu.Unlock()
	if c.gw != nil {
		go func() {
			ticker := time.NewTicker(c.cfg.Interval)
			defer ticker.Stop()
			// The labeling only moves when some register did: a quiet
			// cluster skips the O(n) register sweep instead of re-reading
			// every node per tick forever. regWrites is the cluster-level
			// write counter every setState bumps — monotone, one atomic
			// load per poll, where the per-node Stats() sweep it replaced
			// was O(n) under memMu even when nothing moved.
			lastWrites := int64(-1)
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if w := c.regWrites.Load(); w != lastWrites {
						lastWrites = w
						c.memMu.RLock()
						c.gw.refresh()
						c.memMu.RUnlock()
					}
				}
			}
		}()
	}
	<-ctx.Done()
	c.memMu.Lock()
	c.serving = false
	c.memMu.Unlock()
	c.serveWG.Done()
	c.serveWG.Wait()
	return ctx.Err()
}

// spawnServe runs one node's free-running actor loop on its own timer
// and notify channel. Caller holds memMu with serving true (the
// sentinel guarantees serveWG's counter is positive, making the Add
// here safe against the final Wait).
func (c *Cluster) spawnServe(nd *Node) {
	if nd.running {
		return
	}
	nd.running = true
	nd.stop = make(chan struct{})
	nd.stopped = make(chan struct{})
	c.serveWG.Add(1)
	ctx := c.serveCtx
	go func() {
		defer c.serveWG.Done()
		defer close(nd.stopped)
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			// A closed stop channel must win even when the ticker is also
			// ready, so retirement is checked on its own first.
			select {
			case <-ctx.Done():
				return
			case <-nd.stop:
				return
			default:
			}
			select {
			case <-ctx.Done():
				return
			case <-nd.stop:
				return
			case <-nd.ep.Notify():
				// Receive path: ingest only. Stepping and broadcasting
				// stay on the ticker, so the send rate is bound to
				// Interval no matter how fast frames arrive.
				nd.absorb(&c.cfg, c.gw)
			case <-ticker.C:
				nd.tick(nd.localTick+1, &c.cfg, c.gw)
			}
		}
	}()
}

// Snapshot appends every node's current register in dense-slot order —
// the bridge to the simulator's spec checkers: load the snapshot into a
// runtime.Network over the same graph and every shared-memory assertion
// (silence, closure, spec, register bounds) applies verbatim.
func (c *Cluster) Snapshot(into []runtime.State) []runtime.State {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		into = append(into, nd.State())
	}
	return into
}

// Mirror loads the cluster's registers into a fresh runtime.Network
// over the same graph, for spec checking.
func (c *Cluster) Mirror() (*runtime.Network, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	net, err := runtime.NewNetwork(c.g, c.alg)
	if err != nil {
		return nil, err
	}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if s := nd.State(); s != nil {
			net.SetState(nd.id, s)
		}
	}
	return net, nil
}

// Stats sums the per-node transport counters. The counters are atomic,
// so this is safe at any time — mid-tick, during Serve, or from a
// metrics scrape.
func (c *Cluster) Stats() Stats {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	var s Stats
	s.Joins = int(c.joins.Load())
	s.Leaves = int(c.leaves.Load())
	s.Crashes = int(c.crashes.Load())
	// Retired nodes' final counters live on in the departed aggregate,
	// so totals are monotone across churn.
	snaps := []NodeStats{c.departed.snapshot()}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		snaps = append(snaps, nd.stats.snapshot())
	}
	for _, ns := range snaps {
		s.FramesSent += ns.FramesSent
		s.BytesSent += ns.BytesSent
		s.FramesRecv += ns.FramesRecv
		s.RxRejected += ns.RxRejected
		s.HeartbeatsApplied += ns.HeartbeatsApplied
		s.RegisterWrites += ns.RegisterWrites
		s.StalenessExpiries += ns.StalenessExpiries
		s.PacketsForwarded += ns.PacketsForwarded
		s.PacketsDropped += ns.PacketsDropped
		s.AnchorsSent += ns.AnchorsSent
		s.DeltasSent += ns.DeltasSent
		s.ResyncsSent += ns.ResyncsSent
		s.DeltaMisses += ns.DeltaMisses
		s.AdvertsSent += ns.AdvertsSent
		s.NeighborEvictions += ns.NeighborEvictions
	}
	return s
}

// MaxRegisterBits returns the largest register over all nodes under the
// natural encoding — the space measure of the paper, unchanged by the
// transform.
func (c *Cluster) MaxRegisterBits() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	max := 0
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if s := nd.State(); s != nil {
			if b := s.EncodedBits(); b > max {
				max = b
			}
		}
	}
	return max
}
