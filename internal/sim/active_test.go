package sim

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/mesh"
)

// checkActiveInvariants asserts everything the routing loop assumes about
// the engine's active-node bookkeeping: the list is strictly increasing
// (sorted, duplicate-free — the order that makes worker sharding and the
// state hash deterministic), it agrees exactly with the activeMark bitmap,
// a node is marked iff its queue is non-empty, and the queues hold exactly
// the live packets.
func checkActiveInvariants(t *testing.T, e *Engine) {
	t.Helper()
	for i := 1; i < len(e.active); i++ {
		if e.active[i-1] >= e.active[i] {
			t.Fatalf("step %d: active list not strictly increasing at %d: %v",
				e.time, i, e.active)
		}
	}
	inList := make(map[mesh.NodeID]bool, len(e.active))
	for _, n := range e.active {
		inList[n] = true
	}
	queued := 0
	for n := range e.byNode {
		id := mesh.NodeID(n)
		if e.activeMark[n] != inList[id] {
			t.Fatalf("step %d: node %d mark=%v but in active list=%v",
				e.time, n, e.activeMark[n], inList[id])
		}
		if occupied := len(e.byNode[n]) > 0; occupied != e.activeMark[n] {
			t.Fatalf("step %d: node %d holds %d packets but mark=%v",
				e.time, n, len(e.byNode[n]), e.activeMark[n])
		}
		queued += len(e.byNode[n])
	}
	if queued != e.live {
		t.Fatalf("step %d: %d packets queued, %d live", e.time, queued, e.live)
	}
}

// stepAllChecked steps the engine to completion, checking the invariants
// between every step.
func stepAllChecked(t *testing.T, e *Engine, maxSteps int) {
	t.Helper()
	checkActiveInvariants(t, e)
	for e.live > 0 && e.time < maxSteps {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		checkActiveInvariants(t, e)
	}
	if e.live > 0 {
		t.Fatalf("run did not finish within %d steps", maxSteps)
	}
}

// TestSortActiveDenseAllNodes drives the dense rebuild path: every node of
// the mesh starts occupied (active covers the whole bitmap), so sortActive
// takes its comparison-free ordered-scan branch on every step until the
// network thins out — at which point the same run also crosses over into
// the sparse slices.Sort branch.
func TestSortActiveDenseAllNodes(t *testing.T) {
	m := mesh.MustNewTorus(2, 6)
	rng := rand.New(rand.NewSource(4))
	var pkts []*Packet
	for n := 0; n < m.Size(); n++ {
		for j := 0; j < 2; j++ {
			pkts = append(pkts, NewPacket(len(pkts), mesh.NodeID(n), mesh.NodeID(rng.Intn(m.Size()))))
		}
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.active) != m.Size() {
		t.Fatalf("initially active nodes = %d, want all %d", len(e.active), m.Size())
	}
	stepAllChecked(t, e, 4000)
}

// TestSortActiveSingleNode pins the len<=1 early return: one packet, one
// active node throughout — the list must stay consistent without ever
// needing a sort.
func TestSortActiveSingleNode(t *testing.T) {
	m := mesh.MustNew(2, 8)
	p := NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{7, 7}))
	e, err := New(m, firstGoodPolicy(), []*Packet{p}, Options{Validation: ValidateBasic})
	if err != nil {
		t.Fatal(err)
	}
	for e.live > 0 {
		if got := len(e.active); got != 1 {
			t.Fatalf("step %d: %d active nodes, want exactly 1", e.time, got)
		}
		checkActiveInvariants(t, e)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	checkActiveInvariants(t, e)
}

// TestSortActiveSparse keeps the active set far below the dense-rebuild
// threshold (len(active)*4 < nodes) so every re-sort goes through the
// slices.Sort fallback, with move application scrambling the append order
// each step.
func TestSortActiveSparse(t *testing.T) {
	m := mesh.MustNewTorus(2, 16)
	pkts := []*Packet{
		NewPacket(0, m.ID([]int{15, 3}), m.ID([]int{2, 9})),
		NewPacket(1, m.ID([]int{0, 12}), m.ID([]int{8, 1})),
		NewPacket(2, m.ID([]int{7, 7}), m.ID([]int{15, 0})),
		NewPacket(3, m.ID([]int{3, 15}), m.ID([]int{3, 2})),
		NewPacket(4, m.ID([]int{12, 0}), m.ID([]int{1, 14})),
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.active)*4 >= len(e.activeMark) {
		t.Fatalf("test premise broken: %d active of %d nodes is not sparse", len(e.active), m.Size())
	}
	stepAllChecked(t, e, 4000)
}

// burstInjector injects a burst of packets at scattered nodes every step
// until step last, always within the per-node injection capacity.
type burstInjector struct {
	last int
	per  int
}

func (b *burstInjector) Exhausted(t int) bool { return t > b.last }

func (b *burstInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if t > b.last {
		return nil
	}
	m := e.Mesh()
	var out []*Packet
	mine := make(map[mesh.NodeID]int) // this call's own picks count against capacity
	id := e.NextPacketID()
	for i := 0; i < b.per; i++ {
		node := mesh.NodeID(rng.Intn(m.Size()))
		if e.InjectionCapacity(node)-mine[node] <= 0 {
			continue // skip full nodes; capacity is rechecked fresh each step
		}
		mine[node]++
		out = append(out, NewPacket(id, node, mesh.NodeID(rng.Intn(m.Size()))))
		id++
	}
	return out
}

// TestSortActiveAfterInjection checks the re-sort at the injection site:
// each step begins by pushing packets onto arbitrary — possibly previously
// inactive — nodes, and the active list must be back in strict order before
// routing.
func TestSortActiveAfterInjection(t *testing.T) {
	m := mesh.MustNewTorus(2, 8)
	e, err := New(m, firstGoodPolicy(), nil, Options{Validation: ValidateBasic, Seed: 2, MaxSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(&burstInjector{last: 30, per: 6})
	checkActiveInvariants(t, e)
	for e.time < 4000 {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		checkActiveInvariants(t, e)
		if e.time > 30 && e.live == 0 {
			break
		}
	}
	if e.live != 0 {
		t.Fatalf("injected traffic never drained: %d live at step %d", e.live, e.time)
	}
	if e.nextID == 0 {
		t.Fatal("injector never injected")
	}
}

// TestMergeActiveAfterInjection drives the injection-site merge directly:
// onto an already-populated active list it injects new nodes before,
// between and after the existing ones, in scrambled order, plus packets
// onto nodes that are already active. Right after inject — before routing
// re-sorts anything — the list must be strictly increasing and agree with
// activeMark and the queues.
func TestMergeActiveAfterInjection(t *testing.T) {
	m := mesh.MustNew(2, 8)
	var pkts []*Packet
	for i, n := range []mesh.NodeID{10, 20, 30, 40} {
		pkts = append(pkts, NewPacket(i, n, n+3))
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var burst []*Packet
	for _, n := range []mesh.NodeID{63, 25, 5, 20, 35, 0, 10, 41, 39} {
		burst = append(burst, NewPacket(len(pkts)+len(burst), n, (n+9)%mesh.NodeID(m.Size())))
	}
	e.SetInjector(&scriptInjector{at: map[int][]*Packet{0: burst}})
	if err := e.inject(); err != nil {
		t.Fatal(err)
	}
	checkActiveInvariants(t, e)
	want := []mesh.NodeID{0, 5, 10, 20, 25, 30, 35, 39, 40, 41, 63}
	if !slices.Equal(e.active, want) {
		t.Fatalf("active after injection = %v, want %v", e.active, want)
	}

	// The same shapes every step of a run, against whatever the moves left:
	// inject, check, then route and apply without injecting again.
	e, err = New(m, firstGoodPolicy(), nil, Options{Validation: ValidateBasic, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	inj := &burstInjector{last: 40, per: 8}
	e.SetInjector(inj)
	for e.time <= inj.last {
		if err := e.inject(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		checkActiveInvariants(t, e)
		e.injector = nil
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		e.injector = inj
	}
}

// TestMergeTail checks the merge against a full sort on random lists: a
// sorted prefix plus a scrambled tail of distinct new elements, including
// empty prefixes and tails and tails entirely before or after the prefix.
func TestMergeTail(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var buf []int32
	for trial := 0; trial < 500; trial++ {
		universe := rng.Perm(40 + rng.Intn(40))
		n := rng.Intn(len(universe) / 2)
		tail := rng.Intn(len(universe) - n)
		switch trial % 4 {
		case 1: // tail entirely after the prefix
			slices.Sort(universe)
		case 2: // tail entirely before the prefix
			slices.Sort(universe)
			slices.Reverse(universe)
		}
		a := make([]int32, n+tail)
		for i := range a {
			a[i] = int32(universe[i])
		}
		slices.Sort(a[:n])
		rng.Shuffle(tail, func(i, j int) { a[n+i], a[n+j] = a[n+j], a[n+i] })
		want := slices.Clone(a)
		slices.Sort(want)
		buf = MergeTail(a, n, buf)
		if !slices.Equal(a, want) {
			t.Fatalf("trial %d (prefix %d, tail %d): got %v, want %v", trial, n, tail, a, want)
		}
	}
}
