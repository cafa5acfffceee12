package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/wire"
)

// span is one timed interval of the traced run. Parent is the index of
// the enclosing span (-1 at the top); every span of a run shares the
// run id written next to them.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spans records the traced run's spans in memory. Spans are opened and
// closed by the driver goroutine only — phases, ticks and timed public
// calls, plus the transport's Step, which the cluster calls from inside
// Tick on that same goroutine — so the recorder needs no lock. A nil
// *spans records nothing, which is how untraced runs stay untraced.
type spans struct {
	runID string
	t0    time.Time
	all   []span
	open  []int
}

// maxSpans bounds the recorder; a run that would exceed it keeps its
// first maxSpans spans and counts the rest.
const maxSpans = 1 << 20

func newSpans(runID string) *spans { return &spans{runID: runID, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index
// (-1 when nothing is recorded).
func (s *spans) begin(name string) int {
	if s == nil || len(s.all) >= maxSpans {
		return -1
	}
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	s.all = append(s.all, span{Name: name, Start: int64(time.Since(s.t0)), Parent: parent})
	i := len(s.all) - 1
	s.open = append(s.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.all[i].End = int64(time.Since(s.t0))
	s.open = s.open[:len(s.open)-1]
}

// add records an already-measured child of the innermost open span.
func (s *spans) add(name string, start, end time.Time) {
	if s == nil || len(s.all) >= maxSpans {
		return
	}
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	s.all = append(s.all, span{Name: name, Start: int64(start.Sub(s.t0)), End: int64(end.Sub(s.t0)), Parent: parent})
}

// timed runs f inside a span.
func (s *spans) timed(name string, f func()) time.Duration {
	i := s.begin(name)
	t := time.Now()
	f()
	d := time.Since(t)
	s.end(i)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func (s *spans) selfTimes() map[string]float64 {
	child := make([]int64, len(s.all))
	for _, sp := range s.all {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]float64)
	for i, sp := range s.all {
		out[sp.Name] += float64(sp.End-sp.Start-child[i]) / 1e6
	}
	return out
}

// write dumps the spans as one JSON document.
func (s *spans) write(path string) error {
	data, err := json.Marshal(struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{s.runID, s.all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceTransport is the benchmark's transport boundary: it wraps the
// transport under test, forwards every call, and counts what crosses.
// It forwards the optional hooks the cluster discovers by type
// assertion — membership eviction and metrics registration — so churn
// and /metrics behave exactly as over the bare transport. Over a
// lockstep transport use stepTransport, which adds Step and InFlight;
// this type deliberately does not implement cluster.Stepper, so an
// async transport stays async.
type traceTransport struct {
	inner cluster.Transport
	capt  *capture

	mu     sync.Mutex
	eps    []*traceEndpoint
	opened map[graph.NodeID]bool
}

// traceEndpoint counts its node's traffic. Counters are atomic because
// in Serve mode the node goroutine writes them while the driver reads.
type traceEndpoint struct {
	inner   cluster.Endpoint
	sampled bool
	capt    *capture

	broadcasts atomic.Int64 // Broadcast calls
	bytes      atomic.Int64 // bytes of every frame copy handed over
	bcastNS    atomic.Int64 // time spent inside the inner Broadcast
}

func newTraceTransport(inner cluster.Transport, capt *capture) *traceTransport {
	return &traceTransport{inner: inner, capt: capt, opened: map[graph.NodeID]bool{}}
}

// Open implements cluster.Transport.
func (t *traceTransport) Open(id graph.NodeID) (cluster.Endpoint, error) {
	ep, err := t.inner.Open(id)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A rejoining id is always sampled, so the capture holds the
	// membership adverts a join opens with.
	te := &traceEndpoint{inner: ep, capt: t.capt, sampled: t.capt.samples(id) || t.opened[id]}
	t.opened[id] = true
	t.eps = append(t.eps, te)
	return te, nil
}

// Close implements cluster.Transport.
func (t *traceTransport) Close() error { return t.inner.Close() }

// Evict forwards the membership hook.
func (t *traceTransport) Evict(id graph.NodeID) {
	if ev, ok := t.inner.(interface{ Evict(graph.NodeID) }); ok {
		ev.Evict(id)
	}
}

// RegisterMetrics forwards the metrics hook.
func (t *traceTransport) RegisterMetrics(reg *ops.Registry) {
	if m, ok := t.inner.(interface{ RegisterMetrics(*ops.Registry) }); ok {
		m.RegisterMetrics(reg)
	}
}

// counts sums the endpoints' counters, departed endpoints included.
type transportCounts struct {
	Broadcasts, Bytes, BcastNS int64
}

func (t *traceTransport) counts() transportCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c transportCounts
	for _, ep := range t.eps {
		c.Broadcasts += ep.broadcasts.Load()
		c.Bytes += ep.bytes.Load()
		c.BcastNS += ep.bcastNS.Load()
	}
	return c
}

func (d transportCounts) minus(o transportCounts) transportCounts {
	return transportCounts{d.Broadcasts - o.Broadcasts, d.Bytes - o.Bytes, d.BcastNS - o.BcastNS}
}

// Send implements cluster.Endpoint.
func (e *traceEndpoint) Send(to graph.NodeID, frame []byte) error {
	e.bytes.Add(int64(len(frame)))
	if e.sampled {
		e.capt.add(frame)
	}
	return e.inner.Send(to, frame)
}

// Broadcast implements cluster.Endpoint.
func (e *traceEndpoint) Broadcast(dsts []graph.NodeID, frame []byte) error {
	e.broadcasts.Add(1)
	e.bytes.Add(int64(len(dsts) * len(frame)))
	if e.sampled {
		e.capt.add(frame)
	}
	t := time.Now()
	err := e.inner.Broadcast(dsts, frame)
	e.bcastNS.Add(int64(time.Since(t)))
	return err
}

// Drain implements cluster.Endpoint.
func (e *traceEndpoint) Drain(into [][]byte) [][]byte { return e.inner.Drain(into) }

// Notify implements cluster.Endpoint.
func (e *traceEndpoint) Notify() <-chan struct{} { return e.inner.Notify() }

// Close implements cluster.Endpoint.
func (e *traceEndpoint) Close() error { return e.inner.Close() }

// stepTransport is traceTransport over a lockstep transport. Step is
// where a tick's actor phase ends and its sweep begins, so it stamps
// the boundaries the driver needs to split each Tick into actor, Step
// and sweep time.
type stepTransport struct {
	*traceTransport
	step cluster.Stepper

	stepStart, stepEnd time.Time
}

func newStepTransport(inner cluster.Transport, capt *capture) (*stepTransport, error) {
	st, ok := inner.(cluster.Stepper)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T is not a lockstep transport", inner)
	}
	return &stepTransport{traceTransport: newTraceTransport(inner, capt), step: st}, nil
}

// Step implements cluster.Stepper.
func (t *stepTransport) Step(tick uint64) {
	t.stepStart = time.Now()
	t.step.Step(tick)
	t.stepEnd = time.Now()
}

// InFlight implements cluster.Stepper.
func (t *stepTransport) InFlight() int { return t.step.InFlight() }

// capture keeps a bounded, seeded sample of real frames for the codec
// replay: every frame a sampled sender hands to the transport is
// offered to a reservoir of fixed size, and every anchor a sampled
// sender sends is kept aside so the deltas built on it can be decoded
// and re-encoded.
type capture struct {
	codec       wire.Codec
	seed, share uint64

	mu      sync.Mutex
	rng     *rand.Rand
	seen    int
	frames  [][]byte
	anchors [][]byte
}

// captureFrames and captureAnchors bound the replay sample.
const (
	captureFrames  = 4096
	captureAnchors = 1 << 16
)

// newCapture samples about k of the n senders: a sender is sampled
// when a seeded hash of its id falls in a k/n share of the hash space,
// so the choice is fixed by the seed whatever order nodes open in.
func newCapture(codec wire.Codec, n, k int, seed int64) *capture {
	return &capture{codec: codec, seed: uint64(seed), share: uint64(max(1, n/max(k, 1))),
		rng: rand.New(rand.NewSource(seed))}
}

func (c *capture) samples(id graph.NodeID) bool {
	// splitmix64 finaliser over the seeded id.
	z := c.seed ^ uint64(id)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%c.share == 0
}

func (c *capture) add(frame []byte) {
	cp := slices.Clone(frame)
	f, err := wire.Decode(c.codec, cp)
	anchor := err == nil && f.Kind == wire.KindDelta && f.BaseSeq == f.Seq
	c.mu.Lock()
	defer c.mu.Unlock()
	if anchor && len(c.anchors) < captureAnchors {
		c.anchors = append(c.anchors, cp)
	}
	c.seen++
	if len(c.frames) < captureFrames {
		c.frames = append(c.frames, cp)
		return
	}
	if j := c.rng.Intn(c.seen); j < captureFrames {
		c.frames[j] = cp
	}
}
