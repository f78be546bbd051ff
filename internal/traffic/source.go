package traffic

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// DestFunc draws a destination for a packet generated at src. A nil
// DestFunc means uniform over all nodes other than src.
type DestFunc func(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID

// Gen is one generated (not yet injected) packet: the output unit of a
// Generator, before the source queue and the injection-capacity gate.
type Gen struct {
	Src   mesh.NodeID
	Dst   mesh.NodeID
	Class int
}

// Generator is one traffic process: at every step it decides which packets
// enter the source queues. Implementations must be deterministic given the
// rng (the engine's dedicated injection stream) and must not retain out.
// Generators compose: a Source drains any number of them — one per client,
// tenant or traffic class — into the shared per-node backlogs.
type Generator interface {
	// Generate appends the packets generated at step t on mesh m to out and
	// returns the extended slice. Called once per step, in client order.
	Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen
	// Done reports that no packet will ever be generated at or after step t
	// (e.g. the generation window closed). Generators that never stop
	// always return false; the run then ends at the step budget.
	Done(t int) bool
}

// StatefulGenerator is implemented by generators whose behavior depends on
// internal state beyond the injection RNG (renewal clocks, on/off phases,
// token buckets, replay cursors). Source snapshots capture and reinstate
// that state, so checkpoint/resume is exact mid-burst.
type StatefulGenerator interface {
	Generator
	// SnapshotGenerator serializes the generator's internal state.
	SnapshotGenerator() (json.RawMessage, error)
	// RestoreGenerator reinstates state captured by SnapshotGenerator.
	RestoreGenerator(data json.RawMessage) error
}

// Source adapts any set of Generators into a sim.CheckpointableInjector:
// generated packets queue in per-node backlogs and are injected, in node
// order, whenever the hot-potato constraint leaves room. Generation order
// across clients is fixed (the NewSource order), so multi-client traffic is
// deterministic, and the generation time of every packet is recorded for
// end-to-end latency and backlog (saturation) measurement.
type Source struct {
	gens    []Generator
	backlog [][]pending
	scratch []Gen
	// waiting lists the nodes with a non-empty backlog, ascending; only
	// they are drained, so a step costs O(arrivals + waiting nodes), not
	// O(nodes). It is derived from backlog (rebuilt by RestoreState), never
	// serialized. mergeBuf is sim.MergeTail's scratch.
	waiting  []mesh.NodeID
	mergeBuf []mesh.NodeID

	generated  int
	injected   int
	curBacklog int
	maxBacklog int
	genTime    map[int]int // packet ID -> generation step

	trace *TraceWriter
}

var _ sim.CheckpointableInjector = (*Source)(nil)

// NewSource composes the given generators into one injector. Generation
// runs in argument order each step.
func NewSource(gens ...Generator) (*Source, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("traffic: source needs at least one generator")
	}
	for i, g := range gens {
		if g == nil {
			return nil, fmt.Errorf("traffic: nil generator at index %d", i)
		}
	}
	return &Source{gens: gens, genTime: make(map[int]int)}, nil
}

// Generators returns the composed generators, in generation order.
func (s *Source) Generators() []Generator { return s.gens }

// SetTrace installs an injection-trace recorder: every injected packet is
// appended as an (step, src, dst, class) event. Recording is orthogonal to
// checkpointing — a resumed run records from the resume point on.
func (s *Source) SetTrace(w *TraceWriter) { s.trace = w }

// Inject implements sim.Injector: run every generator, queue its output in
// the per-node backlogs, then drain the backlogs into the per-node
// injection room in node order.
func (s *Source) Inject(t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	m := host.Mesh()
	if s.backlog == nil {
		s.backlog = make([][]pending, m.Size())
	}

	s.scratch = s.scratch[:0]
	for _, g := range s.gens {
		s.scratch = g.Generate(t, m, rng, s.scratch)
	}
	sorted := len(s.waiting)
	for _, gp := range s.scratch {
		if len(s.backlog[gp.Src]) == 0 {
			s.waiting = append(s.waiting, gp.Src)
		}
		s.backlog[gp.Src] = append(s.backlog[gp.Src], pending{dst: gp.Dst, generatedAt: t, class: gp.Class})
		s.generated++
		s.curBacklog++
	}
	s.mergeBuf = sim.MergeTail(s.waiting, sorted, s.mergeBuf)

	var out []*sim.Packet
	still := s.waiting[:0]
	for _, node := range s.waiting {
		q := s.backlog[node]
		room := host.InjectionCapacity(node)
		take := len(q)
		if room < take {
			take = room
		}
		for i := 0; i < take; i++ {
			p := sim.NewPacket(host.NextPacketID(), node, q[i].dst)
			p.Class = q[i].class
			s.genTime[p.ID] = q[i].generatedAt
			out = append(out, p)
			s.injected++
			s.curBacklog--
			if s.trace != nil {
				s.trace.Record(t, node, q[i].dst, q[i].class)
			}
		}
		s.backlog[node] = q[take:]
		if take < len(q) {
			still = append(still, node)
		}
	}
	s.waiting = still
	if s.curBacklog > s.maxBacklog {
		s.maxBacklog = s.curBacklog
	}
	return out
}

// Exhausted implements sim.Injector: done once every generator is done and
// the backlogs have drained.
func (s *Source) Exhausted(t int) bool {
	if s.curBacklog > 0 {
		return false
	}
	for _, g := range s.gens {
		if !g.Done(t) {
			return false
		}
	}
	return true
}

// Generated returns the number of packets produced by all generators.
func (s *Source) Generated() int { return s.generated }

// Injected returns the number of packets actually injected so far.
func (s *Source) Injected() int { return s.injected }

// Backlog returns the current number of generated-but-not-injected packets.
func (s *Source) Backlog() int { return s.curBacklog }

// MaxBacklog returns the largest backlog observed.
func (s *Source) MaxBacklog() int { return s.maxBacklog }

// Latency returns the end-to-end latency (generation to arrival) of a
// delivered packet, or -1 if it has not arrived or is unknown.
func (s *Source) Latency(p *sim.Packet) int {
	gen, ok := s.genTime[p.ID]
	if !ok || !p.Arrived() {
		return -1
	}
	return p.ArrivedAt - gen
}

// Serialized source state. Maps are flattened into slices sorted by key so
// the bytes are deterministic (checkpoint parity is bit-level).

type pendingState struct {
	Dst   mesh.NodeID `json:"dst"`
	Gen   int         `json:"gen"`
	Class int         `json:"class,omitempty"`
}

type backlogState struct {
	Node mesh.NodeID    `json:"node"`
	Pend []pendingState `json:"pend"`
}

type idStep struct {
	ID   int `json:"id"`
	Step int `json:"step"`
}

type sourceState struct {
	Nodes      int               `json:"nodes"` // len(backlog); 0 = not yet sized
	Backlog    []backlogState    `json:"backlog,omitempty"`
	Generated  int               `json:"generated"`
	Injected   int               `json:"injected"`
	CurBacklog int               `json:"cur_backlog"`
	MaxBacklog int               `json:"max_backlog"`
	GenTime    []idStep          `json:"gen_time,omitempty"`
	Gens       []json.RawMessage `json:"gens,omitempty"`
}

func captureBacklog(backlog [][]pending) []backlogState {
	var out []backlogState
	for node, q := range backlog {
		if len(q) == 0 {
			continue
		}
		bs := backlogState{Node: mesh.NodeID(node), Pend: make([]pendingState, len(q))}
		for i, p := range q {
			bs.Pend[i] = pendingState{Dst: p.dst, Gen: p.generatedAt, Class: p.class}
		}
		out = append(out, bs)
	}
	return out
}

func restoreBacklog(states []backlogState, nodes int) ([][]pending, int, error) {
	if nodes == 0 {
		if len(states) > 0 {
			return nil, 0, fmt.Errorf("traffic: backlog entries without a node count")
		}
		return nil, 0, nil
	}
	backlog := make([][]pending, nodes)
	count := 0
	for _, bs := range states {
		if bs.Node < 0 || int(bs.Node) >= nodes {
			return nil, 0, fmt.Errorf("traffic: backlog node %d outside [0, %d)", bs.Node, nodes)
		}
		q := make([]pending, len(bs.Pend))
		for i, ps := range bs.Pend {
			q[i] = pending{dst: ps.Dst, generatedAt: ps.Gen, class: ps.Class}
		}
		backlog[bs.Node] = q
		count += len(q)
	}
	return backlog, count, nil
}

func captureGenTime(genTime map[int]int) []idStep {
	out := make([]idStep, 0, len(genTime))
	for id, step := range genTime {
		out = append(out, idStep{ID: id, Step: step})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SnapshotState implements sim.CheckpointableInjector.
func (s *Source) SnapshotState() ([]byte, error) {
	st := sourceState{
		Nodes:      len(s.backlog),
		Backlog:    captureBacklog(s.backlog),
		Generated:  s.generated,
		Injected:   s.injected,
		CurBacklog: s.curBacklog,
		MaxBacklog: s.maxBacklog,
		GenTime:    captureGenTime(s.genTime),
	}
	st.Gens = make([]json.RawMessage, len(s.gens))
	for i, g := range s.gens {
		if sg, ok := g.(StatefulGenerator); ok {
			raw, err := sg.SnapshotGenerator()
			if err != nil {
				return nil, fmt.Errorf("traffic: snapshot generator %d: %w", i, err)
			}
			st.Gens[i] = raw
		}
	}
	return json.Marshal(&st)
}

// RestoreState implements sim.CheckpointableInjector. The source must be
// freshly built with the same generators (same kinds, same order) as the
// snapshotted one.
func (s *Source) RestoreState(data []byte) error {
	var st sourceState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("traffic: restore source state: %w", err)
	}
	if len(st.Gens) != len(s.gens) {
		return fmt.Errorf("traffic: snapshot has %d generators, source has %d", len(st.Gens), len(s.gens))
	}
	backlog, count, err := restoreBacklog(st.Backlog, st.Nodes)
	if err != nil {
		return err
	}
	if count != st.CurBacklog {
		return fmt.Errorf("traffic: backlog carries %d packets, state says %d", count, st.CurBacklog)
	}
	s.backlog = backlog
	s.waiting = s.waiting[:0]
	for node, q := range backlog {
		if len(q) > 0 {
			s.waiting = append(s.waiting, mesh.NodeID(node))
		}
	}
	s.generated = st.Generated
	s.injected = st.Injected
	s.curBacklog = st.CurBacklog
	s.maxBacklog = st.MaxBacklog
	s.genTime = make(map[int]int, len(st.GenTime))
	for _, e := range st.GenTime {
		s.genTime[e.ID] = e.Step
	}
	for i, g := range s.gens {
		sg, ok := g.(StatefulGenerator)
		if !ok {
			if len(st.Gens[i]) > 0 && string(st.Gens[i]) != "null" {
				return fmt.Errorf("traffic: snapshot carries state for generator %d (%T), which is stateless", i, g)
			}
			continue
		}
		if err := sg.RestoreGenerator(st.Gens[i]); err != nil {
			return fmt.Errorf("traffic: restore generator %d: %w", i, err)
		}
	}
	return nil
}

// uniformDest draws a uniform destination other than src.
func uniformDest(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
	for {
		dst := mesh.NodeID(rng.Intn(m.Size()))
		if dst != src {
			return dst
		}
	}
}

func drawDest(dest DestFunc, src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
	if dest != nil {
		return dest(src, m, rng)
	}
	return uniformDest(src, m, rng)
}
