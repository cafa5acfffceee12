package cluster

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// This file is the cluster's live-membership surface: Join, Leave, and
// Crash reshape a running cluster — including mid-Serve — without a
// restart. The flow is always coordinator-driven: membership never
// derives from the wire (an advert can only refresh a neighbor the
// topology already granted; see Node.ingest). The moving parts:
//
//   - The persistent runtime.Network (c.net) validates every topology
//     mutation and fans TopoEvents out to the gateway's labeler.
//   - Every live actor gets its neighbor row re-derived from the shared
//     dense layout; in Serve mode the update is queued (nodeRemap) and
//     applied by the actor itself at a safe point.
//   - A departing id's last heartbeat seq is remembered (seqFloor), and
//     a rejoining incarnation opens its counter above it, so frames of
//     the old incarnation still in flight can never shadow the new one
//     behind receivers' duplicate filters.
//   - Transports that keep id-keyed directories implement evictor so a
//     departed id's entries (address, route, queued frames) are torn
//     down instead of shadowing a rejoiner.

// evictor is the optional transport hook for membership churn: Evict
// tears down everything the transport still associates with a departed
// id — its endpoint registration, its directory entry (UDP's id→addr
// map), and any frames queued on the departing side — after flushing
// sends the node made on its way out (the goodbye broadcast must
// survive the teardown).
type evictor interface {
	Evict(id graph.NodeID)
}

// Join adds node id to the running cluster, connected by the given
// edges (each must touch id and an existing member). The new actor
// starts with an empty register — the algorithm's bootstrap rule fires
// on its first activation — and opens with a membership advert followed
// by a self-contained heartbeat, so its neighbors evict whatever they
// cached about a previous incarnation of the id before fresh state
// lands. Safe at any point: before the first tick, between ticks, or
// mid-Serve (the actor spawns into the running pool).
func (c *Cluster) Join(id graph.NodeID, edges []graph.Edge) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.net.AddNode(id, nil); err != nil {
		return err
	}
	added := 0
	var err error
	for _, e := range edges {
		if err = c.net.AddEdge(e.U, e.V, e.W); err != nil {
			break
		}
		added++
	}
	if err == nil {
		var ep Endpoint
		if ep, err = c.tr.Open(id); err == nil {
			c.admit(id, ep)
			return nil
		}
	}
	// Roll the topology back so a failed join leaves no trace.
	for _, e := range edges[:added] {
		c.net.RemoveEdge(e.U, e.V)
	}
	c.net.RemoveNode(id)
	return err
}

// admit finishes a join once the topology mutators and the transport
// have accepted id. Caller holds memMu write lock.
func (c *Cluster) admit(id graph.NodeID, ep Endpoint) {
	slot, _ := c.d.IndexOf(id)
	for len(c.nodes) <= slot {
		c.nodes = append(c.nodes, nil)
	}
	nd := c.newMember(id, slot, ep)
	// Open the heartbeat counter above every frame any previous
	// incarnation of this id ever sent (see seqFloor).
	nd.seq = c.seqFloor[id]
	// First tick: advert, then a self-contained anchor heartbeat — the
	// receivers just reset this id's anchor state, so the first register
	// frame must not be a delta.
	nd.advertPending = true
	nd.resyncPending = true
	nd.hbCadence = c.hbCadence
	nd.frameBytes = c.frameBytes
	if c.flightCap > 0 {
		nd.ring.Store(trace.NewRing(c.flightCap))
		nd.recordEpoch(trace.Admit, trace.ClassNone, 0, 0, 0, 0, 0)
	}
	c.nodes[slot] = nd
	if c.admin != nil {
		c.admin.add(c, nd)
	}
	// Re-row every other live actor. The joined id is in the reset list:
	// wherever it was already a neighbor (a rejoin), the old
	// incarnation's receive state must start fresh even if the advert
	// frame itself is lost.
	c.remapAllLocked(id)
	c.stateDirty = true
	c.joins.Add(1)
	if c.serving {
		c.spawnServe(nd)
	}
}

// Leave retires node id cooperatively: its actor parks, broadcasts a
// goodbye (neighbors evict its cached state immediately instead of
// waiting out the staleness TTL), and its endpoint and directory
// entries are torn down.
func (c *Cluster) Leave(id graph.NodeID) error { return c.retire(id, true) }

// Crash kills node id without a goodbye: neighbors only find out when
// its cache entries age past StalenessTTL — the fault-model exit.
func (c *Cluster) Crash(id graph.NodeID) error { return c.retire(id, false) }

func (c *Cluster) retire(id graph.NodeID, goodbye bool) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	nd := c.nodeLocked(id)
	if nd == nil {
		return fmt.Errorf("cluster: no live node %d", id)
	}
	if c.d.N() == 1 {
		return fmt.Errorf("cluster: refusing to retire the last node")
	}
	// Park a Serve actor first; from here the coordinator owns its state
	// (lockstep nodes only run inside Tick, which memMu excludes).
	if nd.running {
		close(nd.stop)
		<-nd.stopped
		nd.running = false
	}
	if goodbye {
		c.sendGoodbye(nd)
	}
	// Remember the final seq: a future incarnation of this id opens
	// above it, so receivers never confuse the two (the goodbye itself
	// consumed the last value).
	c.seqFloor[id] = nd.seq
	// Packets parked in its queue die with it — accounted lost in
	// transit, exactly once, through the gateway's single-shot ledger.
	if c.gw != nil {
		nd.mu.Lock()
		q := nd.dataQ
		nd.dataQ, nd.heldSince = nil, nil
		nd.mu.Unlock()
		for _, p := range q {
			c.gw.orphan(p)
		}
	}
	// The counters must not vanish from cluster totals (a scrape would
	// see monotone counters decrease), so they fold into the departed
	// aggregate before the node is dropped.
	c.departed.fold(&nd.stats)
	// The flight recorder follows the same rule: the retirement is the
	// ring's final entry, then the ring moves to the departed list so
	// trace merges keep the leaver's causal history. The actor is
	// parked, so its tick and epoch are safe to read directly.
	if r := nd.ring.Load(); r != nil {
		coop := uint64(0)
		if goodbye {
			coop = 1
		}
		nd.recordEpoch(trace.Retire, trace.ClassNone, 0, 0, coop, nd.localTick, nd.qEpoch)
		evs, dropped := r.Snapshot(nil)
		c.departedTr = append(c.departedTr, trace.NodeTrace{Node: nd.id, Dropped: dropped, Events: evs})
		if len(c.departedTr) > departedTraceCap {
			c.departedTr = c.departedTr[len(c.departedTr)-departedTraceCap:]
		}
	}
	// A departing announcing root takes its announcement with it: the
	// remaining nodes' epochs bump on the remap below, so any survivor
	// root re-announces only after a fresh convergecast.
	c.noteAnnounce(id, 0, false)
	// Tear down the wire presence: directory and queue entries first
	// (flushing the goodbye still buffered on lockstep transports), then
	// the socket.
	if ev, ok := c.tr.(evictor); ok {
		ev.Evict(id)
	}
	nd.ep.Close()
	c.nodes[nd.slot] = nil
	if err := c.net.RemoveNode(id); err != nil {
		return err
	}
	c.remapAllLocked()
	if c.admin != nil {
		c.admin.remove(id)
	}
	c.stateDirty = true
	if goodbye {
		c.leaves.Add(1)
	} else {
		c.crashes.Add(1)
	}
	return nil
}

// sendGoodbye broadcasts the leave frame on the retiring node's way
// out. The actor is parked, so the coordinator drives its encoder
// directly. Caller holds memMu write lock.
func (c *Cluster) sendGoodbye(nd *Node) {
	nd.seq++
	data, err := wire.Encode(wire.Frame{Kind: wire.KindLeave, Alg: c.codec.Code(),
		Src: nd.id, Seq: nd.seq}, c.codec, &nd.enc, nil)
	if err != nil {
		return // a goodbye carries no state; encode cannot fail in practice
	}
	nd.ep.Broadcast(nd.neighbors, data)
	nd.record(trace.FrameTx, trace.ClassLeave, 0, nd.seq, 0, nd.localTick)
	nd.stats.FramesSent.Add(int64(len(nd.neighbors)))
	nd.stats.BytesSent.Add(int64(len(nd.neighbors) * len(data)))
	if nd.frameBytes != nil {
		nd.frameBytes.Observe(float64(len(data)))
	}
}

// AddEdge brings link {u,v} up in the running cluster and re-rows both
// endpoint actors.
func (c *Cluster) AddEdge(u, v graph.NodeID, w graph.Weight) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.net.AddEdge(u, v, w); err != nil {
		return err
	}
	c.remapEndpointsLocked(u, v)
	return nil
}

// RemoveEdge takes link {u,v} down in the running cluster. The carried
// receive state for the lost neighbor is dropped on both sides; if the
// link later heals, its entries start fresh.
func (c *Cluster) RemoveEdge(u, v graph.NodeID) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.net.RemoveEdge(u, v); err != nil {
		return err
	}
	c.remapEndpointsLocked(u, v)
	return nil
}

func (c *Cluster) remapEndpointsLocked(u, v graph.NodeID) {
	for _, id := range [2]graph.NodeID{u, v} {
		if nd := c.nodeLocked(id); nd != nil {
			c.remapNodeLocked(nd, nil)
		}
	}
	c.stateDirty = true
}

// remapAllLocked pushes the current dense rows to every live actor.
// reset lists ids whose per-neighbor receive state must start fresh (a
// recycled id rejoining). Caller holds memMu write lock.
func (c *Cluster) remapAllLocked(reset ...graph.NodeID) {
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		c.remapNodeLocked(nd, reset)
	}
}

// remapNodeLocked re-derives one actor's neighbor row from the shared
// dense layout. In Serve mode the update is queued and the actor
// applies it at the top of its next tick or absorb (it may be mid-tick
// right now); lockstep nodes (which only run inside Tick, excluded by
// memMu) and idle actors take it synchronously. Caller holds memMu
// write lock.
func (c *Cluster) remapNodeLocked(nd *Node, reset []graph.NodeID) {
	i, ok := c.d.IndexOf(nd.id)
	if !ok {
		return
	}
	r := &nodeRemap{
		n:         c.d.N(),
		neighbors: append([]graph.NodeID(nil), c.d.NeighborIDs(i)...),
		weights:   append([]graph.Weight(nil), c.d.Weights(i)...),
		reset:     reset,
	}
	nd.mu.Lock()
	if c.serving && nd.running {
		nd.pendingRemap = r
	} else {
		nd.pendingRemap = nil
		nd.applyRemapLocked(r)
	}
	nd.mu.Unlock()
}

// fold adds every counter of from into c — the retirement path that
// keeps cluster-level totals monotone across churn.
func (c *nodeCounters) fold(from *nodeCounters) {
	c.FramesSent.Add(from.FramesSent.Load())
	c.BytesSent.Add(from.BytesSent.Load())
	c.FramesRecv.Add(from.FramesRecv.Load())
	c.RxRejected.Add(from.RxRejected.Load())
	c.HeartbeatsApplied.Add(from.HeartbeatsApplied.Load())
	c.PacketsForwarded.Add(from.PacketsForwarded.Load())
	c.PacketsDropped.Add(from.PacketsDropped.Load())
	c.RegisterWrites.Add(from.RegisterWrites.Load())
	c.StalenessExpiries.Add(from.StalenessExpiries.Load())
	c.AnchorsSent.Add(from.AnchorsSent.Load())
	c.DeltasSent.Add(from.DeltasSent.Load())
	c.ResyncsSent.Add(from.ResyncsSent.Load())
	c.DeltaMisses.Add(from.DeltaMisses.Load())
	c.AdvertsSent.Add(from.AdvertsSent.Load())
	c.NeighborEvictions.Add(from.NeighborEvictions.Load())
}
