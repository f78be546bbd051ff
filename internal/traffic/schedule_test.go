package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
)

// pollRenewal is the per-node scan that Renewal.Generate's calendar
// replaces, kept as the reference it must match draw for draw: every step
// it visits every node and emits each epoch before t+1.
type pollRenewal struct{ *Renewal }

func (g pollRenewal) Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	if g.next == nil {
		g.next = make([]float64, m.Size())
		for i := range g.next {
			g.next[i] = g.sample(rng)
		}
	}
	if g.Until > 0 && t >= g.Until {
		return out
	}
	limit := float64(t) + 1
	for node := mesh.NodeID(0); int(node) < m.Size(); node++ {
		for g.next[node] < limit {
			out = append(out, Gen{Src: node, Dst: drawDest(g.Dest, node, m, rng), Class: g.Class})
			g.next[node] += g.sample(rng)
		}
	}
	return out
}

// pollInject is the per-node drain that Source.Inject's waiting list
// replaces: generate, queue, then visit every node's backlog in node order.
func pollInject(s *Source, t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	m := host.Mesh()
	if s.backlog == nil {
		s.backlog = make([][]pending, m.Size())
	}
	s.scratch = s.scratch[:0]
	for _, g := range s.gens {
		s.scratch = g.Generate(t, m, rng, s.scratch)
	}
	for _, gp := range s.scratch {
		s.backlog[gp.Src] = append(s.backlog[gp.Src], pending{dst: gp.Dst, generatedAt: t, class: gp.Class})
		s.generated++
		s.curBacklog++
	}
	var out []*sim.Packet
	for node := mesh.NodeID(0); int(node) < m.Size(); node++ {
		q := s.backlog[node]
		if len(q) == 0 {
			continue
		}
		room := host.InjectionCapacity(node)
		take := min(len(q), room)
		for i := 0; i < take; i++ {
			p := sim.NewPacket(host.NextPacketID(), node, q[i].dst)
			p.Class = q[i].class
			s.genTime[p.ID] = q[i].generatedAt
			out = append(out, p)
			s.injected++
			s.curBacklog--
		}
		s.backlog[node] = q[take:]
	}
	if s.curBacklog > s.maxBacklog {
		s.maxBacklog = s.curBacklog
	}
	return out
}

// stubHost is an InjectorHost whose injection room is a fixed function of
// (step, node), so both sides of a comparison see the same capacities. It
// logs every capacity query, which pins the drain's visiting order too.
type stubHost struct {
	m       *mesh.Mesh
	t       int
	room    func(t int, node mesh.NodeID) int
	nextID  int
	queried []mesh.NodeID
}

func (h *stubHost) Mesh() *mesh.Mesh { return h.m }

func (h *stubHost) InjectionCapacity(node mesh.NodeID) int {
	h.queried = append(h.queried, node)
	return h.room(h.t, node)
}

func (h *stubHost) NextPacketID() int {
	id := h.nextID
	h.nextID++
	return id
}

// TestInjectorScheduleMatchesPoll runs the event-scheduled Source and
// Renewal next to the per-node polls they replace and asserts that every
// step generates the same Gen slice, injects the same packets (id, src,
// dst, class) after the same capacity queries, draws the same random
// numbers and leaves the same counters and snapshot bytes. Midway, the
// scheduled side is snapshotted and restored into a fresh source, and a
// few steps later both sides are rewound to that snapshot in place, so the
// calendar and waiting-list rebuilds are compared too.
func TestInjectorScheduleMatchesPoll(t *testing.T) {
	full := func(int, mesh.NodeID) int { return 4 }
	// Capacity-starved: a node gets one slot every seventh step, so
	// backlogs persist and the waiting list carries nodes for many steps.
	starved := func(t int, n mesh.NodeID) int {
		if (int(n)+t)%7 == 0 {
			return 1
		}
		return 0
	}
	renewal := func(kind string, rate, shape float64, until int) func() Generator {
		return func() Generator {
			g, err := NewRenewal(kind, rate, shape, until)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	// Replay events land in descending node order within a step, so the
	// composite's Gen slice is far from node order.
	var events []TraceEvent
	for s := 0; s < 50; s++ {
		for j := 0; j < 3; j++ {
			events = append(events, TraceEvent{Step: s, Src: mesh.NodeID(63 - (s*5+j*11)%64), Dst: mesh.NodeID((s*7 + j) % 64), Class: 1})
		}
	}
	cases := []struct {
		name      string
		side      int
		gens      []func() Generator
		room      func(int, mesh.NodeID) int
		steps     int
		restoreAt int
	}{
		{"poisson/until0", 8, []func() Generator{renewal(KindExp, 0.1, 1, 0)}, full, 80, 30},
		{"poisson/until40", 8, []func() Generator{renewal(KindExp, 0.1, 1, 40)}, full, 80, 20},
		{"gamma/until0", 8, []func() Generator{renewal(KindGamma, 0.1, 2.5, 0)}, full, 80, 0},
		{"gamma/until40", 8, []func() Generator{renewal(KindGamma, 0.1, 0.4, 40)}, full, 80, 45},
		{"weibull/until0", 8, []func() Generator{renewal(KindWeibull, 0.1, 0.7, 0)}, full, 80, 33},
		{"weibull/until40", 8, []func() Generator{renewal(KindWeibull, 0.1, 1.8, 40)}, full, 80, 40},
		{"composite", 8, []func() Generator{
			renewal(KindExp, 0.05, 1, 60),
			func() Generator {
				g, err := NewAdversary(2.5, 6, AxisCol, -1, 50)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			func() Generator { return NewReplay(events) },
		}, full, 90, 25},
		{"starved", 16, []func() Generator{renewal(KindExp, 0.3, 1, 60)}, starved, 200, 70},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mesh.MustNew(2, c.side)
			build := func(poll bool) *Source {
				gens := make([]Generator, len(c.gens))
				for i, mk := range c.gens {
					gens[i] = mk()
					if r, ok := gens[i].(*Renewal); ok && poll {
						gens[i] = pollRenewal{r}
					}
				}
				src, err := NewSource(gens...)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
			sched, poll := build(false), build(true)
			var srcA, srcB rng.SplitMix64
			srcA.Seed(5)
			srcB.Seed(5)
			rngA, rngB := rand.New(&srcA), rand.New(&srcB)
			hostA := &stubHost{m: m, room: c.room}
			hostB := &stubHost{m: m, room: c.room}
			snapshot := func(s *Source) []byte {
				st, err := s.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			restore := func(s *Source, st []byte) {
				if err := s.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			}
			// At restoreAt the scheduled side moves to a fresh source
			// restored from its snapshot. rewindAfter steps later both sides
			// are rewound to that snapshot in place — as an in-memory
			// rollback does — and the steps are compared again.
			const rewindAfter = 7
			var stA, stB []byte
			var rngA0, rngB0 uint64
			var idA0, idB0 int
			rewound := false
			injected := 0
			for step := 0; step < c.steps; step++ {
				if step == c.restoreAt && !rewound {
					stA, stB = snapshot(sched), snapshot(poll)
					rngA0, rngB0, idA0, idB0 = srcA.State(), srcB.State(), hostA.nextID, hostB.nextID
					sched = build(false)
					restore(sched, stA)
				}
				if step == c.restoreAt+rewindAfter && !rewound {
					restore(sched, stA)
					restore(poll, stB)
					srcA.SetState(rngA0)
					srcB.SetState(rngB0)
					hostA.nextID, hostB.nextID = idA0, idB0
					step, rewound = c.restoreAt, true
				}
				hostA.t, hostB.t = step, step
				hostA.queried, hostB.queried = hostA.queried[:0], hostB.queried[:0]
				got := sched.Inject(step, hostA, rngA)
				want := pollInject(poll, step, hostB, rngB)
				if !slices.Equal(sched.scratch, poll.scratch) {
					t.Fatalf("step %d: generated %v, poll generated %v", step, sched.scratch, poll.scratch)
				}
				if !slices.Equal(hostA.queried, hostB.queried) {
					t.Fatalf("step %d: drained nodes %v, poll drained %v", step, hostA.queried, hostB.queried)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d: injected %d packets, poll injected %d", step, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.ID != w.ID || g.Src != w.Src || g.Dst != w.Dst || g.Class != w.Class {
						t.Fatalf("step %d packet %d: (%d %d->%d c%d), poll (%d %d->%d c%d)",
							step, i, g.ID, g.Src, g.Dst, g.Class, w.ID, w.Src, w.Dst, w.Class)
					}
				}
				injected += len(got)
				if srcA.State() != srcB.State() {
					t.Fatalf("step %d: random streams diverged", step)
				}
				if sched.Generated() != poll.Generated() || sched.Injected() != poll.Injected() ||
					sched.Backlog() != poll.Backlog() || sched.MaxBacklog() != poll.MaxBacklog() {
					t.Fatalf("step %d: counters (gen %d inj %d backlog %d max %d), poll (%d %d %d %d)", step,
						sched.Generated(), sched.Injected(), sched.Backlog(), sched.MaxBacklog(),
						poll.Generated(), poll.Injected(), poll.Backlog(), poll.MaxBacklog())
				}
				a, err := sched.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				b, err := poll.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("step %d: snapshot bytes differ from the poll's", step)
				}
			}
			if injected == 0 {
				t.Fatal("test premise broken: nothing was injected")
			}
			if c.name == "starved" && poll.MaxBacklog() < 20 {
				t.Fatalf("test premise broken: starved case peaked at backlog %d", poll.MaxBacklog())
			}
		})
	}
}

// TestRenewalCalendarBounded checks that nodes whose next epoch is at or
// past Until never enter the calendar, and that the calendar is released
// once the window is spent.
func TestRenewalCalendarBounded(t *testing.T) {
	m := mesh.MustNew(2, 64)
	g, err := NewPoisson(0.001, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	g.Generate(0, m, r, nil)
	inWindow := 0
	for _, at := range g.next {
		if at < 50 {
			inWindow++
		}
	}
	if len(g.cal) >= m.Size()/4 || len(g.cal) > inWindow {
		t.Fatalf("calendar holds %d of %d nodes; only %d have an epoch before Until", len(g.cal), m.Size(), inWindow)
	}
	for step := 1; step < 50; step++ {
		g.Generate(step, m, r, nil)
	}
	if g.cal != nil {
		t.Fatalf("calendar still holds %d entries after the window closed", len(g.cal))
	}
}

// goldenSource is the source the committed testdata snapshots were taken
// from: two renewal clients with different windows on an 8x8 mesh.
func goldenSource(t *testing.T) *Source {
	t.Helper()
	p, err := NewPoisson(0.08, 60)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewRenewal(KindWeibull, 0.05, 0.7, 40)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(p, w)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestInjectorSnapshotGolden pins the Source/Renewal checkpoint format to
// engine checkpoints written by the per-node polling implementation
// (testdata/renewal_source_8x8_t*.hpck, seed 11; the run's per-step
// StateHash series is in renewal_source_8x8_run.json). For each snapshot
// step — before the first step (renewal clocks never drawn), mid-window,
// after one client's window, after both — the current code must write the
// same injector bytes at that step, and a run restored from the file must
// retrace the recorded StateHash series to the recorded end.
func TestInjectorSnapshotGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "renewal_source_8x8_run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var run struct {
		FinalTime   int      `json:"final_time"`
		Generated   int      `json:"generated"`
		Injected    int      `json:"injected"`
		MaxBacklog  int      `json:"max_backlog"`
		StateHashes []string `json:"state_hashes"`
	}
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	m := mesh.MustNew(2, 8)
	hash := func(e *sim.Engine) string { return fmt.Sprintf("%016x", e.StateHash()) }
	for _, at := range []int{0, 25, 50, 62} {
		t.Run(fmt.Sprintf("t%d", at), func(t *testing.T) {
			snap, err := sim.LoadSnapshot(filepath.Join("testdata", fmt.Sprintf("renewal_source_8x8_t%d.hpck", at)))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Time != at || !snap.HasInjector {
				t.Fatalf("golden snapshot at t=%d has injector=%v", snap.Time, snap.HasInjector)
			}

			e := newEngine(t, m, 11)
			src := goldenSource(t)
			e.SetInjector(src)
			for e.Time() < at {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := src.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, snap.InjectorState) {
				t.Fatalf("injector snapshot at t=%d differs from the golden bytes:\n got %s\nwant %s", at, got, snap.InjectorState)
			}

			r := newEngine(t, m, 11)
			rs := goldenSource(t)
			r.SetInjector(rs)
			if err := r.Restore(snap); err != nil {
				t.Fatal(err)
			}
			for {
				if r.Time() >= len(run.StateHashes) {
					t.Fatalf("restored run outlived the recorded one (%d steps)", run.FinalTime)
				}
				if h := hash(r); h != run.StateHashes[r.Time()] {
					t.Fatalf("t=%d: StateHash %s, recorded %s", r.Time(), h, run.StateHashes[r.Time()])
				}
				if rs.Exhausted(r.Time()) && r.Live() == 0 {
					break
				}
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if r.Time() != run.FinalTime || rs.Generated() != run.Generated ||
				rs.Injected() != run.Injected || rs.MaxBacklog() != run.MaxBacklog {
				t.Fatalf("restored run ended at t=%d with gen %d inj %d max backlog %d; recorded t=%d, %d %d %d",
					r.Time(), rs.Generated(), rs.Injected(), rs.MaxBacklog(),
					run.FinalTime, run.Generated, run.Injected, run.MaxBacklog)
			}
		})
	}
}
