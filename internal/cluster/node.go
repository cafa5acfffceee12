package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/runtime"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// Node is one cluster member: an actor owning exactly its local
// register and a cache of its neighbors' last heartbeat states — the
// message-passing realization of the paper's single-writer
// multiple-reader register (Section II-A). All protocol state below is
// touched only by the goroutine running the node's tick (a lockstep
// shard worker or the node's Serve actor); the mutex
// guards the published register (and the data queue's injection side)
// for between-tick readers like the gateway.
type Node struct {
	id        graph.NodeID
	slot      int
	n         int            // network size (the model's known bound)
	neighbors []graph.NodeID // ascending; cloned from graph.Dense
	weights   []graph.Weight // parallel to neighbors, cloned
	ep        Endpoint
	codec     wire.Codec
	alg       runtime.Algorithm

	// Serve-mode lifecycle plumbing, owned by the cluster coordinator
	// (under c.memMu) and made when the actor spawns: stop retires the
	// actor, stopped is closed by the actor goroutine on exit.
	stop    chan struct{}
	stopped chan struct{}
	running bool

	mu   sync.Mutex
	self runtime.State

	// pendingRemap carries a neighbor-row update queued by the
	// coordinator while the actor may be mid-tick (Serve mode); the
	// actor applies it at the top of its next tick or absorb. Guarded by
	// mu. Lockstep remaps apply synchronously instead (no node runs
	// between ticks).
	pendingRemap *nodeRemap
	// advertPending arms the membership beacon: the node's next tick
	// opens with a KindAdvert broadcast (set on Join, before the actor
	// spawns; consumed by the actor).
	advertPending bool
	// adminAddr is the ops-plane address carried in this node's adverts
	// (empty without an admin server). Guarded by mu.
	adminAddr string

	// Neighbor-state cache, parallel to neighbors. lastSeen is the local
	// tick of the last accepted heartbeat (0 = never); lastSeq the
	// highest accepted sequence number, which rejects duplicated and
	// reordered-stale heartbeats. Cache writes happen under mu so the
	// admin plane can snapshot a live node; the owning goroutine's own
	// reads stay lock-free (it is the only writer).
	cache    []runtime.State
	lastSeen []uint64
	lastSeq  []uint64
	peers    []runtime.State // per-tick effective view (staleness applied)
	// wasStale tracks each entry's staleness as of the last step, so
	// fresh→stale transitions are counted exactly once per expiry.
	wasStale []bool

	// Receiver-side delta anchors, parallel to neighbors: the register
	// and seq of the last self-contained frame accepted per neighbor —
	// the base the sender's deltas are applied against. lastResync
	// rate-limits re-anchor requests to one per neighbor per tick.
	anchorRx    []runtime.State
	anchorSeqRx []uint64
	lastResync  []uint64
	// peerAdmin holds advert-learned ops-plane addresses, parallel to
	// neighbors — the decentralized leg of admin discovery.
	peerAdmin []string

	// dataQ holds routed packets parked at this node (in flight, or
	// stalled on an unroutable labeling). heldSince is parallel.
	dataQ     []wire.Packet
	heldSince []uint64

	seq       uint64 // own heartbeat counter
	localTick uint64
	changed   bool   // register changed during the last tick
	lastHB    uint64 // local tick of the last broadcast (cadence metric)

	// Sender-side delta and cadence state (actor-owned; changedSince is
	// also set under mu by out-of-band register writes between ticks).
	anchorState   runtime.State // register as of the last self-contained broadcast
	anchorSeq     uint64
	sinceFull     int  // broadcasts since the last self-contained frame
	resyncPending bool // some neighbor asked to re-anchor
	changedSince  bool // register changed since the last broadcast
	gap           uint64
	nextHB        uint64 // local tick the next keep-alive is due

	// Termination-detector state (quiet.go). qRx caches the last
	// accepted quiet report per neighbor, parallel to neighbors. The
	// scalar fields are the node's own detector round: its write epoch
	// (a Lamport clock over register writes and membership events), the
	// local tick of its last activity, the report its frames carry, and
	// whether it is a root with an active announcement. All are guarded
	// by mu: out-of-band writes and the admin plane touch them from
	// outside the node's tick.
	qRx      []wire.QuietReport
	qWrote   bool   // register written since the last detector round
	qEpoch   uint64 // write epoch; joins to the max epoch heard
	qLastAct uint64 // local tick of the last write or eviction
	qOut     wire.QuietReport
	qDirty   bool   // report transition pending an urgent broadcast
	qAnnRoot bool   // this node is a root with an active announcement
	qAnnEp   uint64 // epoch of the root's active announcement

	// noteAnn reports root-announcement transitions to the cluster;
	// writeCount and writeClock mirror every register write into
	// cluster-level aggregates. All nil for standalone nodes.
	noteAnn    func(root graph.NodeID, epoch uint64, active bool)
	writeCount *atomic.Int64
	writeClock *atomic.Int64

	enc      bits.Builder
	decBuf   []uint64 // reusable frame-decode scratch
	drainBuf [][]byte

	stats nodeCounters
	// hbCadence (heartbeat intervals) and frameBytes (encoded frame
	// sizes) are cluster-shared histograms, nil when the cluster runs
	// without a metrics registry.
	hbCadence  *ops.Histogram
	frameBytes *ops.Histogram

	// ring is the causal flight recorder (trace.go in this package,
	// DESIGN.md §14) — nil until EnableFlightRecorder arms it. Behind an
	// atomic pointer so arming mid-Serve needs no actor coordination and
	// the disabled hook path is one load-and-branch. epochMirror shadows
	// qEpoch for hooks that record outside nd.mu; it is written at every
	// qEpoch write site.
	ring        atomic.Pointer[trace.Ring]
	epochMirror atomic.Uint64
}

// NodeStats is a snapshot of one node's transport-visible activity.
type NodeStats struct {
	FramesSent, BytesSent  int
	FramesRecv, RxRejected int
	HeartbeatsApplied      int
	PacketsForwarded       int
	PacketsDropped         int
	// RegisterWrites counts δ-driven register changes (the node's
	// moves); StalenessExpiries counts fresh→stale cache transitions.
	RegisterWrites    int
	StalenessExpiries int
	// Delta-protocol accounting: self-contained anchor frames vs delta
	// frames broadcast, re-anchor requests sent, and received deltas
	// dropped for want of their anchor.
	AnchorsSent int
	DeltasSent  int
	ResyncsSent int
	DeltaMisses int
	// Membership accounting: adverts broadcast on (re)join, and neighbor
	// cache entries evicted by goodbyes or reset by adverts.
	AdvertsSent       int
	NeighborEvictions int
}

// nodeCounters is the live counter set. All fields are atomic: the
// owning goroutine increments them mid-tick while Stats / the metrics
// scrape / the admin API read them, so observation is safe during
// Serve — no "call between ticks" footgun.
type nodeCounters struct {
	FramesSent, BytesSent  atomic.Int64
	FramesRecv, RxRejected atomic.Int64
	HeartbeatsApplied      atomic.Int64
	PacketsForwarded       atomic.Int64
	PacketsDropped         atomic.Int64
	RegisterWrites         atomic.Int64
	StalenessExpiries      atomic.Int64
	AnchorsSent            atomic.Int64
	DeltasSent             atomic.Int64
	ResyncsSent            atomic.Int64
	DeltaMisses            atomic.Int64
	AdvertsSent            atomic.Int64
	NeighborEvictions      atomic.Int64
}

// snapshot reads every counter once.
func (c *nodeCounters) snapshot() NodeStats {
	return NodeStats{
		FramesSent:        int(c.FramesSent.Load()),
		BytesSent:         int(c.BytesSent.Load()),
		FramesRecv:        int(c.FramesRecv.Load()),
		RxRejected:        int(c.RxRejected.Load()),
		HeartbeatsApplied: int(c.HeartbeatsApplied.Load()),
		PacketsForwarded:  int(c.PacketsForwarded.Load()),
		PacketsDropped:    int(c.PacketsDropped.Load()),
		RegisterWrites:    int(c.RegisterWrites.Load()),
		StalenessExpiries: int(c.StalenessExpiries.Load()),
		AnchorsSent:       int(c.AnchorsSent.Load()),
		DeltasSent:        int(c.DeltasSent.Load()),
		ResyncsSent:       int(c.ResyncsSent.Load()),
		DeltaMisses:       int(c.DeltaMisses.Load()),
		AdvertsSent:       int(c.AdvertsSent.Load()),
		NeighborEvictions: int(c.NeighborEvictions.Load()),
	}
}

// Stats returns a snapshot of the node's counters, safe at any time.
func (nd *Node) Stats() NodeStats { return nd.stats.snapshot() }

func newNode(id graph.NodeID, slot, n int, neighbors []graph.NodeID, weights []graph.Weight,
	ep Endpoint, codec wire.Codec, alg runtime.Algorithm) *Node {
	deg := len(neighbors)
	return &Node{
		id: id, slot: slot, n: n,
		neighbors: neighbors, weights: weights,
		ep: ep, codec: codec, alg: alg,
		cache:       make([]runtime.State, deg),
		lastSeen:    make([]uint64, deg),
		lastSeq:     make([]uint64, deg),
		peers:       make([]runtime.State, deg),
		wasStale:    make([]bool, deg),
		anchorRx:    make([]runtime.State, deg),
		anchorSeqRx: make([]uint64, deg),
		lastResync:  make([]uint64, deg),
		peerAdmin:   make([]string, deg),
		qRx:         make([]wire.QuietReport, deg),
	}
}

// nodeRemap is a queued neighbor-row update: the dense row recomputed
// by the coordinator after a membership or link change, plus the ids
// whose receive state must start fresh (a neighbor id recycled by a
// join — its old incarnation's seq filter and anchors must not shadow
// the new one).
type nodeRemap struct {
	n         int
	neighbors []graph.NodeID
	weights   []graph.Weight
	reset     []graph.NodeID
}

// applyRemapLocked rebuilds the per-neighbor parallel arrays for a new
// neighbor row, carrying over receive state for neighbors that persist
// and zeroing entries for new, departed-then-returned, or reset ids.
// Caller holds nd.mu.
func (nd *Node) applyRemapLocked(r *nodeRemap) {
	deg := len(r.neighbors)
	cache := make([]runtime.State, deg)
	lastSeen := make([]uint64, deg)
	lastSeq := make([]uint64, deg)
	wasStale := make([]bool, deg)
	anchorRx := make([]runtime.State, deg)
	anchorSeqRx := make([]uint64, deg)
	lastResync := make([]uint64, deg)
	peerAdmin := make([]string, deg)
	qRx := make([]wire.QuietReport, deg)
	for j, id := range r.neighbors {
		if slices.Contains(r.reset, id) {
			continue
		}
		if k, ok := slices.BinarySearch(nd.neighbors, id); ok {
			cache[j] = nd.cache[k]
			lastSeen[j] = nd.lastSeen[k]
			lastSeq[j] = nd.lastSeq[k]
			wasStale[j] = nd.wasStale[k]
			anchorRx[j] = nd.anchorRx[k]
			anchorSeqRx[j] = nd.anchorSeqRx[k]
			lastResync[j] = nd.lastResync[k]
			peerAdmin[j] = nd.peerAdmin[k]
			qRx[j] = nd.qRx[k]
		}
	}
	nd.n = r.n
	nd.neighbors, nd.weights = r.neighbors, r.weights
	nd.cache, nd.lastSeen, nd.lastSeq, nd.wasStale = cache, lastSeen, lastSeq, wasStale
	nd.peers = make([]runtime.State, deg)
	nd.anchorRx, nd.anchorSeqRx, nd.lastResync, nd.peerAdmin = anchorRx, anchorSeqRx, lastResync, peerAdmin
	nd.qRx = qRx
	// A membership event is activity: bump the epoch so any quiet claim
	// built over the old topology is retracted, and restart the local
	// quiet window.
	nd.qEpoch++
	nd.epochMirror.Store(nd.qEpoch)
	nd.qLastAct = nd.localTick
	nd.qDirty = true
}

// applyPendingLocked applies a queued remap, if any. Caller holds nd.mu.
func (nd *Node) applyPendingLocked() {
	if r := nd.pendingRemap; r != nil {
		nd.pendingRemap = nil
		nd.applyRemapLocked(r)
	}
}

// ID returns the node's identity.
func (nd *Node) ID() graph.NodeID { return nd.id }

// State returns the node's current register content.
func (nd *Node) State() runtime.State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.self
}

// setState publishes a new register content and flags the cadence
// machinery: any register write — δ-driven or out-of-band (SetState,
// Corrupt) — snaps the heartbeat back to the base interval.
func (nd *Node) setState(s runtime.State) {
	nd.mu.Lock()
	nd.self = s
	nd.changedSince = true
	nd.qWrote = true
	nd.recordEpoch(trace.RegWrite, trace.ClassNone, 0, 0, 0, nd.localTick, nd.qEpoch)
	nd.mu.Unlock()
	if nd.writeCount != nil {
		nd.writeCount.Add(1)
	}
	if nd.writeClock != nil {
		nd.writeClock.Store(time.Now().UnixNano())
	}
}

// Inject parks a packet at this node (the gateway's entry point).
func (nd *Node) Inject(p wire.Packet) {
	nd.mu.Lock()
	nd.dataQ = append(nd.dataQ, p)
	nd.heldSince = append(nd.heldSince, nd.localTick)
	nd.recordEpoch(trace.PacketLaunch, trace.ClassData, 0, p.ID, uint64(p.Hops), nd.localTick, nd.qEpoch)
	nd.mu.Unlock()
}

// absorb ingests delivered frames at the current local time without
// advancing the protocol clock or broadcasting — the free-running
// receive path. Keeping sends off this path bounds the heartbeat rate
// to the ticker: if arrivals triggered full ticks, every received
// frame would provoke an immediate rebroadcast and adjacent nodes
// would drive each other into a frame storm decoupled from Interval.
func (nd *Node) absorb(cfg *Config, gw *Gateway) {
	nd.mu.Lock()
	nd.applyPendingLocked()
	nd.mu.Unlock()
	nd.drainBuf = nd.ep.Drain(nd.drainBuf[:0])
	for _, data := range nd.drainBuf {
		nd.ingest(data, nd.localTick, cfg, gw)
	}
}

// tick runs one protocol round at local time `now`: ingest delivered
// frames, apply one δ evaluation over the (staleness-filtered) cache
// view, forward parked packets, and heartbeat.
func (nd *Node) tick(now uint64, cfg *Config, gw *Gateway) {
	// localTick is written under the mutex: Gateway.Launch's Inject
	// reads it from outside the node's tick to date parked packets.
	// Queued neighbor-row updates apply here, before the drain, so
	// frames from a just-added neighbor are not rejected as foreign.
	nd.mu.Lock()
	nd.applyPendingLocked()
	nd.localTick = now
	nd.mu.Unlock()
	nd.drainBuf = nd.ep.Drain(nd.drainBuf[:0])
	for _, data := range nd.drainBuf {
		nd.ingest(data, now, cfg, gw)
	}
	nd.step(now, cfg)
	nd.updateQuiet(now, cfg)
	if gw != nil {
		nd.pump(now, cfg, gw)
	}
	// Heartbeat policy: immediately on a re-anchor request, after a
	// register change once MinGap ticks have passed since the last frame
	// (convergence latency), and when the keep-alive falls due. The
	// keep-alive gap backs off exponentially while the register is quiet
	// (see sendHB), so a converged cluster goes nearly silent.
	// A (re)joining node precedes its first heartbeat with an advert:
	// receivers reset the id's cached state before fresh frames land.
	// Join also arms resyncPending, so the heartbeat that follows in
	// this same tick is a self-contained anchor.
	if nd.advertPending {
		nd.advertPending = false
		nd.sendAdvert()
	}
	// Detector-report transitions (subtree-quiet flips, announcement
	// fire/retract) count as urgent like register changes: the
	// convergecast and the flood-down travel at change speed, not at the
	// backed-off keep-alive cadence.
	nd.mu.Lock()
	urgent := nd.changedSince || nd.qDirty
	nd.mu.Unlock()
	if nd.resyncPending || (urgent && now-nd.lastHB >= uint64(cfg.MinGap)) || now >= nd.nextHB {
		nd.sendHB(now, urgent, cfg)
	}
}

// ingest applies one received frame. Undecodable frames — truncated,
// corrupted (checksum), foreign codec — are rejected and counted;
// heartbeats from non-neighbors are rejected (the model only grants a
// node its neighbors' registers); duplicated or reordered-stale
// heartbeats are rejected by sequence number. Delta frames apply
// against the sender's last self-contained anchor; a delta whose
// anchor this node never accepted (lost or reordered away) is dropped
// without refreshing the cache and answered with a resync request.
func (nd *Node) ingest(data []byte, now uint64, cfg *Config, gw *Gateway) {
	nd.stats.FramesRecv.Add(1)
	f, buf, err := wire.DecodeBuf(nd.codec, data, nd.decBuf)
	nd.decBuf = buf
	if err != nil {
		nd.stats.RxRejected.Add(1)
		return
	}
	switch f.Kind {
	case wire.KindHeartbeat, wire.KindDelta:
		if f.Alg != nd.codec.Code() {
			nd.stats.RxRejected.Add(1)
			return
		}
		j, ok := slices.BinarySearch(nd.neighbors, f.Src)
		if !ok {
			nd.stats.RxRejected.Add(1)
			return
		}
		if f.Seq <= nd.lastSeq[j] {
			nd.stats.RxRejected.Add(1) // duplicate or reordered-stale
			return
		}
		st := f.State
		anchor := f.Kind == wire.KindDelta && f.BaseSeq == f.Seq
		if f.Kind == wire.KindDelta && !anchor {
			switch {
			case nd.anchorRx[j] != nil && nd.anchorSeqRx[j] == f.BaseSeq:
				st, err = wire.ApplyDelta(nd.codec, f, nd.anchorRx[j])
				if err != nil {
					// Matching anchor but an unappliable payload: the
					// sender and this node disagree on the base. Re-anchor.
					nd.stats.RxRejected.Add(1)
					nd.requestResync(j, f.Src, now)
					return
				}
			case nd.anchorSeqRx[j] > f.BaseSeq:
				// A delta against an anchor this node has already replaced
				// — a straggler overtaken by a newer full frame. The newer
				// anchor carries fresher state than this delta would yield.
				nd.stats.RxRejected.Add(1)
				return
			default:
				// The delta's anchor never arrived here (lost, or the
				// sender re-anchored while this node was partitioned). The
				// cache must not be refreshed by a frame that cannot be
				// read; ask the sender for a new self-contained frame.
				nd.stats.DeltaMisses.Add(1)
				nd.requestResync(j, f.Src, now)
				return
			}
		}
		// Under mu: the admin plane snapshots the cache from outside the
		// node's tick.
		nd.mu.Lock()
		nd.lastSeq[j] = f.Seq
		nd.cache[j] = st
		nd.lastSeen[j] = now
		nd.qRx[j] = f.Q
		if anchor {
			nd.anchorRx[j] = st
			nd.anchorSeqRx[j] = f.Seq
		}
		nd.mu.Unlock()
		nd.stats.HeartbeatsApplied.Add(1)
		nd.record(trace.FrameRx, trace.ClassHeartbeat, f.Src, f.Seq, 0, now)
	case wire.KindResync:
		if f.Alg != nd.codec.Code() {
			nd.stats.RxRejected.Add(1)
			return
		}
		if _, ok := slices.BinarySearch(nd.neighbors, f.Src); !ok {
			nd.stats.RxRejected.Add(1)
			return
		}
		nd.resyncPending = true
		nd.record(trace.FrameRx, trace.ClassResync, f.Src, f.Seq, 0, now)
	case wire.KindAdvert:
		if f.Alg != nd.codec.Code() {
			nd.stats.RxRejected.Add(1)
			return
		}
		j, ok := slices.BinarySearch(nd.neighbors, f.Src)
		if !ok {
			// Membership never derives from the wire: an advert from a
			// non-neighbor — forged, corrupted-but-decodable, or ahead of
			// this node's own topology update — is rejected outright, so
			// no frame can ever create a phantom member.
			nd.stats.RxRejected.Add(1)
			return
		}
		if f.Seq < nd.lastSeq[j] {
			nd.stats.RxRejected.Add(1) // straggler from a previous incarnation
			return
		}
		if len(f.Neighbors) > 0 {
			if _, ok := slices.BinarySearch(f.Neighbors, nd.id); !ok {
				// The digest does not list this node: the advertiser does
				// not consider us a neighbor, so its entry must not be
				// refreshed on its behalf.
				nd.stats.RxRejected.Add(1)
				return
			}
		}
		// A fresh incarnation of the id: wipe everything cached about the
		// old one and pin the seq filter at the advertised floor, so the
		// rejoiner's early (low-seq) heartbeats are not dropped as
		// stragglers and old in-flight frames cannot shadow it.
		nd.mu.Lock()
		nd.lastSeq[j] = f.Seq
		nd.cache[j] = nil
		nd.lastSeen[j] = 0
		nd.wasStale[j] = false
		nd.anchorRx[j] = nil
		nd.anchorSeqRx[j] = 0
		nd.lastResync[j] = 0
		nd.peerAdmin[j] = f.AdminAddr
		nd.qRx[j] = wire.QuietReport{}
		nd.qEpoch++
		nd.epochMirror.Store(nd.qEpoch)
		nd.qLastAct = now
		nd.mu.Unlock()
		nd.stats.NeighborEvictions.Add(1)
		nd.record(trace.FrameRx, trace.ClassAdvert, f.Src, f.Seq, 0, now)
	case wire.KindLeave:
		if f.Alg != nd.codec.Code() {
			nd.stats.RxRejected.Add(1)
			return
		}
		j, ok := slices.BinarySearch(nd.neighbors, f.Src)
		if !ok {
			nd.stats.RxRejected.Add(1)
			return
		}
		if f.Seq < nd.lastSeq[j] {
			nd.stats.RxRejected.Add(1) // goodbye overtaken by fresher frames
			return
		}
		// Cooperative eviction: drop the leaver's cached register and
		// anchors now instead of waiting out the staleness TTL.
		nd.mu.Lock()
		nd.lastSeq[j] = f.Seq
		nd.cache[j] = nil
		nd.lastSeen[j] = 0
		nd.wasStale[j] = false
		nd.anchorRx[j] = nil
		nd.anchorSeqRx[j] = 0
		nd.lastResync[j] = 0
		nd.peerAdmin[j] = ""
		nd.qRx[j] = wire.QuietReport{}
		nd.qEpoch++
		nd.epochMirror.Store(nd.qEpoch)
		nd.qLastAct = now
		nd.mu.Unlock()
		nd.stats.NeighborEvictions.Add(1)
		nd.record(trace.FrameRx, trace.ClassLeave, f.Src, f.Seq, 0, now)
	case wire.KindData:
		if gw == nil {
			nd.stats.RxRejected.Add(1)
			return
		}
		if f.Data.Dst == nd.id {
			// Recorded whether or not this copy wins the gateway's
			// single-shot resolution: the ring holds local truth, and the
			// chain check tolerates duplicate delivery events.
			nd.record(trace.PacketDeliver, trace.ClassData, f.Src, f.Data.ID, uint64(f.Data.Hops), now)
			gw.deliver(f.Data)
			return
		}
		nd.mu.Lock()
		nd.dataQ = append(nd.dataQ, f.Data)
		nd.heldSince = append(nd.heldSince, now)
		nd.mu.Unlock()
		nd.record(trace.PacketRx, trace.ClassData, f.Src, f.Data.ID, uint64(f.Data.Hops), now)
	}
}

// step evaluates δ once over the staleness-filtered cache view. A
// cache entry older than StalenessTTL local ticks is presented as nil —
// the algorithms treat an unknown neighbor state as inconsistency,
// never acting on stale data — exactly as a register wiped by a fault
// would read in the shared-memory model.
func (nd *Node) step(now uint64, cfg *Config) {
	// pullAfter is the freshness-pull threshold: a quiet neighbor
	// legitimately ages up to BackoffCap plus delivery slack between
	// keep-alives, so an age beyond cap+cap/2+3 means a frame was lost.
	// Pulling a fresh anchor then repairs the cache in a couple of ticks
	// instead of waiting out the next backed-off keep-alive — without it
	// a lost keep-alive could leave a cache stale (but unexpired) long
	// enough for the cluster to look quiet in a non-silent configuration.
	pullAfter := uint64(cfg.BackoffCap + cfg.BackoffCap/2 + 3)
	for j := range nd.peers {
		age := now - nd.lastSeen[j]
		stale := nd.lastSeen[j] == 0 || age > uint64(cfg.StalenessTTL)
		if stale {
			nd.peers[j] = nil
			// Count only heard-then-expired entries, not never-heard ones.
			if !nd.wasStale[j] && nd.lastSeen[j] != 0 {
				nd.stats.StalenessExpiries.Add(1)
			}
			// A neighbor this node has never heard from — a joiner's empty
			// row, or an entry wiped by a rejoiner's advert whose first
			// anchor was then lost — has no age to grow past the freshness
			// pull below, so without an explicit pull a lost anchor leaves
			// the row empty until the peer's next register change: the
			// cluster can go quiet in a non-silent configuration. Past the
			// startup grace (frames normally land within a tick or two),
			// pull an anchor outright.
			if !cfg.DisableDelta && nd.lastSeen[j] == 0 && now > pullAfter {
				nd.requestResync(j, nd.neighbors[j], now)
			}
		} else {
			nd.peers[j] = nd.cache[j]
			if !cfg.DisableDelta && age > pullAfter {
				nd.requestResync(j, nd.neighbors[j], now)
			}
		}
		nd.wasStale[j] = stale
	}
	v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nd.self, nd.peers)
	next := nd.alg.Step(v)
	if nd.self == nil || !next.Equal(nd.self) {
		nd.setState(next)
		nd.changed = true
		nd.stats.RegisterWrites.Add(1)
	} else {
		nd.changed = false
	}
}

// pump advances every parked packet one hop over the gateway's current
// labeling. Unroutable packets stall in place (the labeling may heal);
// packets exceeding the hop budget or the stall budget are dropped and
// reported.
func (nd *Node) pump(now uint64, cfg *Config, gw *Gateway) {
	nd.mu.Lock()
	q, held := nd.dataQ, nd.heldSince
	nd.dataQ, nd.heldSince = nil, nil
	nd.mu.Unlock()
	var keepQ []wire.Packet
	var keepH []uint64
	for i, p := range q {
		next, ok := gw.nextHop(nd.id, p.Dst)
		switch {
		case !ok:
			if now-held[i] > uint64(cfg.MaxHold) {
				// The node counter follows the gateway's single-shot
				// resolution: a duplicate copy dying here after its sibling
				// resolved is invisible in both ledgers.
				if gw.drop(p) {
					nd.stats.PacketsDropped.Add(1)
				}
				nd.record(trace.PacketDrop, trace.ClassData, 0, p.ID, uint64(p.Hops), now)
				continue
			}
			keepQ = append(keepQ, p)
			keepH = append(keepH, held[i])
		case p.Hops+1 > gw.maxHops:
			if gw.drop(p) {
				nd.stats.PacketsDropped.Add(1)
			}
			nd.record(trace.PacketDrop, trace.ClassData, 0, p.ID, uint64(p.Hops), now)
		default:
			p.Hops++
			data, err := wire.Encode(wire.Frame{Kind: wire.KindData, Src: nd.id, Data: p},
				nd.codec, &nd.enc, nil)
			if err != nil {
				if gw.drop(p) {
					nd.stats.PacketsDropped.Add(1)
				}
				nd.record(trace.PacketDrop, trace.ClassData, 0, p.ID, uint64(p.Hops), now)
				continue
			}
			nd.ep.Send(next, data)
			nd.record(trace.PacketFwd, trace.ClassData, next, p.ID, uint64(p.Hops), now)
			nd.stats.PacketsForwarded.Add(1)
			nd.stats.FramesSent.Add(1)
			nd.stats.BytesSent.Add(int64(len(data)))
			if nd.frameBytes != nil {
				nd.frameBytes.Observe(float64(len(data)))
			}
		}
	}
	if len(keepQ) > 0 {
		nd.mu.Lock()
		nd.dataQ = append(keepQ, nd.dataQ...)
		nd.heldSince = append(keepH, nd.heldSince...)
		nd.mu.Unlock()
	}
}

// sendHB runs one heartbeat emission: advance the keep-alive schedule
// (exponential back-off while quiet, instant reset on any change or
// re-anchor request) and broadcast. The back-off cap is derived from
// StalenessTTL in Config.fill so that even consecutive lost keep-alives
// cannot push a peer's observed age past the TTL.
func (nd *Node) sendHB(now uint64, urgent bool, cfg *Config) {
	if !urgent && !nd.resyncPending && !cfg.DisableBackoff {
		nd.gap = min(nd.gap*2, uint64(cfg.BackoffCap))
	} else {
		nd.gap = uint64(cfg.HeartbeatEvery)
	}
	nd.gap = max(nd.gap, uint64(cfg.HeartbeatEvery))
	nd.nextHB = now + nd.gap
	if nd.hbCadence != nil && nd.lastHB != 0 {
		nd.hbCadence.Observe(float64(now - nd.lastHB))
	}
	nd.lastHB = now
	nd.mu.Lock()
	nd.changedSince = false
	nd.qDirty = false
	nd.mu.Unlock()
	nd.broadcast(now, cfg)
}

// broadcast sends the node's register to every neighbor as one frame
// (a shared byte slice: recipients only read). With the delta protocol
// enabled the frame is self-contained — a fresh anchor — when a
// neighbor asked for one, when no anchor exists yet, or every FullEvery
// broadcasts as a drift bound; otherwise it carries only the registers
// changed since the anchor, which for a quiet register is a bare
// header: the near-free keep-alive.
func (nd *Node) broadcast(now uint64, cfg *Config) {
	nd.seq++
	f := wire.Frame{Kind: wire.KindHeartbeat, Alg: nd.codec.Code(),
		Src: nd.id, Seq: nd.seq, State: nd.self, Q: nd.qOut}
	if !cfg.DisableDelta {
		f.Kind = wire.KindDelta
		full := nd.resyncPending || nd.anchorState == nil || nd.self == nil ||
			nd.sinceFull >= cfg.FullEvery
		if full {
			f.BaseSeq = nd.seq
			nd.anchorState = nd.self
			nd.anchorSeq = nd.seq
			nd.sinceFull = 0
			nd.resyncPending = false
			nd.stats.AnchorsSent.Add(1)
		} else {
			f.BaseSeq = nd.anchorSeq
			f.Base = nd.anchorState
			nd.sinceFull++
			nd.stats.DeltasSent.Add(1)
		}
	}
	data, err := wire.Encode(f, nd.codec, &nd.enc, nil)
	if err != nil {
		// A register the codec cannot carry is a wiring bug (foreign
		// state injected into the cluster); surface it loudly.
		panic("cluster: encode own register: " + err.Error())
	}
	nd.ep.Broadcast(nd.neighbors, data)
	// One tx event per broadcast (not per fan-out copy), mirroring the
	// frameBytes convention; every receiver's rx stitches to it.
	nd.record(trace.FrameTx, trace.ClassHeartbeat, 0, nd.seq, 0, now)
	nd.stats.FramesSent.Add(int64(len(nd.neighbors)))
	nd.stats.BytesSent.Add(int64(len(nd.neighbors) * len(data)))
	if nd.frameBytes != nil {
		nd.frameBytes.Observe(float64(len(data)))
	}
}

// sendAdvert broadcasts the membership beacon: identity, opening seq
// (the receiver's new duplicate-filter floor), ops-plane address, and
// a digest of the neighbors this node was configured with.
func (nd *Node) sendAdvert() {
	nd.seq++
	nd.mu.Lock()
	addr := nd.adminAddr
	nd.mu.Unlock()
	f := wire.Frame{Kind: wire.KindAdvert, Alg: nd.codec.Code(),
		Src: nd.id, Seq: nd.seq, AdminAddr: addr, Neighbors: nd.neighbors}
	data, err := wire.Encode(f, nd.codec, &nd.enc, nil)
	if err != nil {
		panic("cluster: encode advert: " + err.Error())
	}
	nd.ep.Broadcast(nd.neighbors, data)
	nd.record(trace.FrameTx, trace.ClassAdvert, 0, nd.seq, 0, nd.localTick)
	nd.stats.AdvertsSent.Add(1)
	nd.stats.FramesSent.Add(int64(len(nd.neighbors)))
	nd.stats.BytesSent.Add(int64(len(nd.neighbors) * len(data)))
	if nd.frameBytes != nil {
		nd.frameBytes.Observe(float64(len(data)))
	}
}

// requestResync asks neighbor j (id `to`) for a fresh self-contained
// frame, at most once per neighbor per local tick: one lost anchor can
// orphan a whole flight of deltas, and one resync heals them all.
func (nd *Node) requestResync(j int, to graph.NodeID, now uint64) {
	if nd.lastResync[j] == now+1 {
		return
	}
	nd.lastResync[j] = now + 1
	data, err := wire.Encode(wire.Frame{Kind: wire.KindResync, Alg: nd.codec.Code(),
		Src: nd.id, Seq: nd.anchorSeqRx[j]}, nd.codec, &nd.enc, nil)
	if err != nil {
		return // resync carries no state; encode cannot fail in practice
	}
	nd.ep.Send(to, data)
	nd.record(trace.FrameTx, trace.ClassResync, to, nd.anchorSeqRx[j], 0, now)
	nd.stats.ResyncsSent.Add(1)
	nd.stats.FramesSent.Add(1)
	nd.stats.BytesSent.Add(int64(len(data)))
	if nd.frameBytes != nil {
		nd.frameBytes.Observe(float64(len(data)))
	}
}
