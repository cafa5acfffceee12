package cluster

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
)

// TestLabelingLookupAfterCrash: a crash leaves a hole in the labeling's
// identity space, so the gateway's lookups switch from binary search to
// the identity map, and the next tick's shard workers forward packets
// through it concurrently. Run under -race: the map must be built by
// the churn hook, not lazily by whichever lookup comes first.
func TestLabelingLookupAfterCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(80, 0.1, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(cl)
	converge(t, cl, 4000)
	victim := g.Nodes()[40]
	if err := cl.Crash(victim); err != nil {
		t.Fatal(err)
	}
	var live []graph.NodeID
	for _, v := range g.Nodes() {
		if v != victim {
			live = append(live, v)
		}
	}
	gw.Launch(routing.UniformPairs(live, 400, rng))
	for i := 0; i < 8; i++ {
		cl.Tick()
	}
	if st := gw.Stats(); st.Delivered == 0 {
		t.Fatalf("no packet delivered after the crash: %+v", st)
	}
}

// TestLockstepOwnsNoNodeGoroutines: lockstep ticks run on a bounded
// pool of short-lived shard workers, so the goroutine count after a
// tick does not grow with the cluster size — and membership changes
// between ticks, ticking after Stop, and Stop itself keep working.
func TestLockstepOwnsNoNodeGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(2000, 8.0/2000, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	before := goruntime.NumGoroutine()
	cl.Tick()
	if grown := goruntime.NumGoroutine() - before; grown > goruntime.GOMAXPROCS(0) {
		t.Fatalf("goroutines grew by %d over a 2000-node tick (GOMAXPROCS %d)",
			grown, goruntime.GOMAXPROCS(0))
	}

	cl.Stop()
	cl.Tick() // ticking after Stop must still work
	nodes := g.Nodes()
	leaver, crashed, joiner := nodes[10], nodes[20], graph.NodeID(nodes[len(nodes)-1]+1)
	edges := []graph.Edge{{U: joiner, V: nodes[30], W: 1}, {U: joiner, V: nodes[31], W: 2}}
	if err := cl.Join(joiner, edges); err != nil {
		t.Fatal(err)
	}
	cl.Tick()
	if err := cl.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	cl.Tick()
	if err := cl.Crash(crashed); err != nil {
		t.Fatal(err)
	}
	before = goruntime.NumGoroutine()
	cl.Tick()
	if grown := goruntime.NumGoroutine() - before; grown > goruntime.GOMAXPROCS(0) {
		t.Fatalf("goroutines grew by %d over a tick after churn", grown)
	}
	if cl.Node(joiner).localTick != cl.Ticks() {
		t.Fatalf("joiner at local tick %d, cluster at %d", cl.Node(joiner).localTick, cl.Ticks())
	}
	if _, ok := cl.RunUntilQuiet(4000, 20); !ok {
		t.Fatal("no quiet after churn")
	}
	checkSilentTree(t, cl)
	if st := cl.Stats(); st.Joins != 1 || st.Leaves != 1 || st.Crashes != 1 {
		t.Fatalf("membership accounting: %+v", st)
	}
}
