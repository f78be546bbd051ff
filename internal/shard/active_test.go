package shard

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// checkShardActive asserts, for every shard, what routing assumes of the
// active bookkeeping: local ids strictly increasing (sorted, no
// duplicates), the list equal to the activeMark bitmap, and a node marked
// iff its queue is non-empty.
func checkShardActive(t *testing.T, e *Engine) {
	t.Helper()
	for _, s := range e.shards {
		for i := 1; i < len(s.active); i++ {
			if s.active[i-1] >= s.active[i] {
				t.Fatalf("step %d shard %d: active list not strictly increasing at %d: %v", e.time, s.idx, i, s.active)
			}
		}
		var marked []int32
		for l, mark := range s.activeMark {
			if mark {
				marked = append(marked, int32(l))
			}
			if occupied := len(s.byLocal[l]) > 0; occupied != mark {
				t.Fatalf("step %d shard %d: local %d holds %d packets but mark=%v", e.time, s.idx, l, len(s.byLocal[l]), mark)
			}
		}
		if !slices.Equal(s.active, marked) {
			t.Fatalf("step %d shard %d: active %v, marked %v", e.time, s.idx, s.active, marked)
		}
	}
}

// listInjector injects one packet at each node of at[t].
type listInjector struct {
	at map[int][]mesh.NodeID
}

func (l *listInjector) Exhausted(t int) bool { return true }

func (l *listInjector) Inject(t int, h sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	var out []*sim.Packet
	for _, n := range l.at[t] {
		out = append(out, sim.NewPacket(h.NextPacketID(), n, (n+9)%mesh.NodeID(h.Mesh().Size())))
	}
	return out
}

// randomInjector injects at random nodes, within each node's capacity.
type randomInjector struct {
	last, per int
}

func (r *randomInjector) Exhausted(t int) bool { return t > r.last }

func (r *randomInjector) Inject(t int, h sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	m := h.Mesh()
	mine := map[mesh.NodeID]int{}
	var out []*sim.Packet
	for i := 0; i < r.per; i++ {
		n := mesh.NodeID(rng.Intn(m.Size()))
		if h.InjectionCapacity(n)-mine[n] <= 0 {
			continue
		}
		mine[n]++
		out = append(out, sim.NewPacket(h.NextPacketID(), n, mesh.NodeID(rng.Intn(m.Size()))))
	}
	return out
}

// TestMergeActiveAfterInjection is the sharded counterpart of sim's test of
// the injection-site merge: into populated per-shard active lists it
// injects nodes before, between and after the active ones, scrambled and
// across shards, plus packets onto already-active nodes, and checks every
// shard's list right after inject, before routing re-sorts anything.
func TestMergeActiveAfterInjection(t *testing.T) {
	m := mesh.MustNew(2, 8)
	var pkts []*sim.Packet
	for i, n := range []mesh.NodeID{9, 13, 20, 27, 45, 50} {
		pkts = append(pkts, sim.NewPacket(i, n, n+2))
	}
	e, err := New(m, core.NewRestrictedPriority(), pkts, Options{Grid: Grid{P: 2, Q: 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := 0
	for _, s := range e.shards {
		before += len(s.active)
	}
	e.SetInjector(&listInjector{at: map[int][]mesh.NodeID{
		0: {63, 26, 0, 13, 1, 60, 45, 19, 36, 9, 10},
	}})
	if err := e.inject(); err != nil {
		t.Fatal(err)
	}
	checkShardActive(t, e)
	after := 0
	for _, s := range e.shards {
		after += len(s.active)
	}
	if before != 6 || after != 6+8 {
		t.Fatalf("active nodes %d before and %d after injection, want 6 and 14", before, after)
	}

	// Random injections every step of a run: inject, check, then route
	// and apply without injecting again.
	e2, err := New(m, core.NewRestrictedPriority(), nil, Options{Grid: Grid{P: 2, Q: 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	inj := &randomInjector{last: 40, per: 8}
	e2.SetInjector(inj)
	for e2.time <= inj.last {
		if err := e2.inject(); err != nil {
			t.Fatalf("step %d: %v", e2.time, err)
		}
		checkShardActive(t, e2)
		e2.injector = nil
		if err := e2.Step(); err != nil {
			t.Fatalf("step %d: %v", e2.time, err)
		}
		e2.injector = inj
	}
}
