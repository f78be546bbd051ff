package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
)

// ErrShardPanic wraps a panic that escaped one shard's stepping goroutine.
// The other shards finish their phase normally; with Options.MaxRecoveries
// the run rolls every shard back to the last coordinated checkpoint and
// retries, otherwise the error surfaces from Step/Run.
var ErrShardPanic = errors.New("shard: shard worker panicked")

// recoveryCadence is how many steps may pass, with recovery enabled, before
// Step captures a fresh in-memory rollback checkpoint. SaveCheckpoint
// restarts the count, so a run saving at least this often captures nothing
// extra.
const recoveryCadence = 256

// Options configures a sharded Engine. The simulation semantics (seed,
// validation, livelock detection, step budget) are those of sim.Options;
// Grid adds the decomposition and MaxRecoveries the crash policy.
type Options struct {
	// Grid is the P x Q shard decomposition; the zero value means 1x1.
	Grid Grid
	// MaxSteps bounds the simulation length; 0 means sim.DefaultMaxSteps.
	MaxSteps int
	// Seed seeds tie-break randomness. Derivation is per (seed, step,
	// global node) — sim.NodeSeed — so results are identical across shard
	// geometries and match a sim engine with Workers > 1.
	Seed int64
	// Validation selects per-step checking of policy output.
	Validation sim.ValidationLevel
	// DetectLivelock enables configuration hashing (deterministic policies
	// only), bit-compatible with the single engine's detector.
	DetectLivelock bool
	// MaxRecoveries is how many times a panicked shard may be recovered by
	// rolling all shards back to the last coordinated checkpoint. 0 means a
	// panic surfaces as an error immediately.
	MaxRecoveries int
}

// phase identifiers broadcast to the shard workers at each barrier.
const (
	phaseRoute = iota
	phaseApply
)

type phaseCmd struct {
	phase int
	t     int
}

// shardState is one shard: a Subgrid view, a NodeRouter against it, the
// per-node queues of the owned rectangle, and the halo mailboxes. It is
// owned by one worker goroutine during phases and by the coordinator
// between barriers; it deliberately holds no reference to the Engine so an
// abandoned engine can be collected and its finalizer can stop the workers.
type shardState struct {
	idx    int
	sub    *mesh.Subgrid
	router *sim.NodeRouter
	pt     *partition

	// byLocal[local] is the queue of the owned node, sliced to out-degree
	// capacity off one contiguous backing array (allocation-free enqueue).
	byLocal    [][]*sim.Packet
	active     []int32 // local ids of non-empty queues, sorted between steps
	activeMark []bool
	// sorted is the length of active's sorted prefix when injection began;
	// mergeBuf is sim.MergeTail's scratch for merging the injected tail.
	sorted   int
	mergeBuf []int32

	// Halo mailboxes. internal stages this shard's own moves; egress[b]
	// stages moves leaving toward receiver shard recvShard[b]. recvOf maps
	// a travel direction to its egress bucket (-1: off-mesh or wraps back
	// into this shard). Buckets are keyed by receiver — two directions that
	// reach the same shard (a 2-wide torus ring) share one bucket, so a
	// node emitting through both still delivers its moves in queue order.
	internal  []sim.Move
	egress    [][]sim.Move
	recvShard []int
	recvOf    []int
	// ingress points at the egress buckets of the neighbors that send to
	// this shard — read only after the route barrier, which provides the
	// happens-before edge.
	ingress []*[]sim.Move

	// Per-step partials, drained by the coordinator at the apply barrier.
	hops        int64
	deflections int64
	arrivals    int
	lastArrival int
	err         error

	// finalized, when non-nil, collects packets that arrive during merge —
	// set by the distributed Node, which has no Engine packet list to
	// consult afterwards. The in-process Engine leaves it nil.
	finalized *[]*sim.Packet

	cmds chan phaseCmd
	wg   *sync.WaitGroup
}

// Engine steps one routing problem across P*Q shard goroutines with
// lock-step barriers: every shard routes its nodes, then every shard
// applies the moves destined to it (its own plus its neighbors' halo
// transfers), in an order chosen so the resulting configurations are
// bit-identical to a single engine's. See the package comment for the
// determinism argument.
//
// The Engine itself is not safe for concurrent use: one goroutine drives
// Step/Run and may inspect state between steps.
type Engine struct {
	mesh   *mesh.Mesh
	policy sim.Policy
	pt     *partition
	shards []*shardState
	opts   Options

	packets     []*sim.Packet
	time        int
	live        int
	lastArrival int
	nextID      int

	livelock     bool
	livelockable bool
	seen         map[uint64]int

	// Continuous traffic. injSrc is seeded rng.Mix(opts.Seed) — exactly the
	// single engine's serial stream. On a Workers>1 sim engine that stream is
	// consumed only by injection (tie-breaks come from per-(seed, step, node)
	// streams, as they do here), so a deterministic injector draws identical
	// values on both engines and the parity contract extends to dynamic
	// traffic.
	injector sim.Injector
	injSrc   rng.SplitMix64
	injRng   *rand.Rand

	totalDeflections int64
	totalHops        int64
	maxNodeLoad      int
	reroutes         int64
	recoveries       int
	// lastCK is the rollback point for shard panics (Options.MaxRecoveries
	// > 0), captured sinceCapture steps ago.
	lastCK       *Checkpoint
	sinceCapture int

	wg        *sync.WaitGroup
	closeOnce sync.Once
}

// New validates the initial configuration and returns a sharded engine
// positioned at time 0. The rules are sim.New's: packets sit at their
// sources with unique IDs, no node originates more packets than its
// out-degree, and source==destination packets are absorbed immediately.
// The mesh must be 2-dimensional. With more than one shard the policy must
// implement sim.ClonablePolicy (each shard routes with its own clone).
func New(m *mesh.Mesh, policy sim.Policy, packets []*sim.Packet, opts Options) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil mesh", sim.ErrBadInjection)
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", sim.ErrBadInjection)
	}
	opts.Grid = opts.Grid.norm()
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = sim.DefaultMaxSteps
	}
	pt, err := newPartition(m, opts.Grid)
	if err != nil {
		return nil, err
	}
	n := opts.Grid.Count()
	e := &Engine{
		mesh:         m,
		policy:       policy,
		pt:           pt,
		opts:         opts,
		packets:      packets,
		livelockable: opts.DetectLivelock && policy.Deterministic(),
		wg:           new(sync.WaitGroup),
	}
	if e.livelockable {
		e.seen = make(map[uint64]int)
	}
	e.injSrc.Seed(rng.Mix(opts.Seed))
	e.injRng = rand.New(&e.injSrc)

	shardPolicy := func() sim.Policy { return policy }
	if n > 1 {
		cp, ok := policy.(sim.ClonablePolicy)
		if !ok {
			return nil, fmt.Errorf("%w: policy %s does not implement ClonablePolicy (required by grid %s)",
				sim.ErrBadInjection, policy.Name(), opts.Grid)
		}
		shardPolicy = func() sim.Policy { return cp.Clone() }
	}

	e.shards = make([]*shardState, n)
	for row := 0; row < opts.Grid.Q; row++ {
		for col := 0; col < opts.Grid.P; col++ {
			s, err := newShardState(m, pt, col, row, shardPolicy(), opts.Seed, opts.Validation)
			if err != nil {
				return nil, err
			}
			s.cmds = make(chan phaseCmd, 1)
			s.wg = e.wg
			e.shards[s.idx] = s
		}
	}
	// Wire ingress: every egress bucket of every sender feeds exactly one
	// receiver's ingress list.
	for _, s := range e.shards {
		for b, recv := range s.recvShard {
			r := e.shards[recv]
			r.ingress = append(r.ingress, &s.egress[b])
		}
	}

	// Admit the initial configuration.
	ids := make(map[int]struct{}, len(packets))
	for _, p := range packets {
		if p == nil {
			return nil, fmt.Errorf("%w: nil packet", sim.ErrBadInjection)
		}
		if err := m.CheckID(p.Src); err != nil {
			return nil, fmt.Errorf("%w: packet %d source: %v", sim.ErrBadInjection, p.ID, err)
		}
		if err := m.CheckID(p.Dst); err != nil {
			return nil, fmt.Errorf("%w: packet %d destination: %v", sim.ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return nil, fmt.Errorf("%w: packet %d not at its source", sim.ErrBadInjection, p.ID)
		}
		if _, dup := ids[p.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate packet id %d", sim.ErrBadInjection, p.ID)
		}
		ids[p.ID] = struct{}{}
		if p.ID >= e.nextID {
			e.nextID = p.ID + 1
		}
		p.Cause = sim.DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = 0
			continue
		}
		p.ArrivedAt = -1
		e.shards[pt.owner(p.Src)].enqueue(p)
		e.live++
	}
	for _, s := range e.shards {
		for _, l := range s.active {
			if deg := s.sub.DegreeLocal(int(l)); len(s.byLocal[l]) > deg {
				return nil, fmt.Errorf("%w: node %d originates %d packets, out-degree %d",
					sim.ErrBadInjection, s.sub.GlobalID(int(l)), len(s.byLocal[l]), deg)
			}
		}
		s.sortActive()
	}

	for _, s := range e.shards {
		go s.work()
	}
	// Stop the shard goroutines when the engine is collected, so callers
	// that never Close do not leak them (the workers reference only their
	// shardState, never the Engine, so collection is not prevented).
	runtime.SetFinalizer(e, (*Engine).Close)
	return e, nil
}

// newShardState builds one shard: the Subgrid view, its NodeRouter, the
// allocation-free queue backing, and the egress buckets. Shared by the
// in-process Engine (which adds the phase channel and a worker goroutine)
// and the distributed Node (which steps its shards sequentially and leaves
// cmds/wg nil).
func newShardState(m *mesh.Mesh, pt *partition, col, row int, policy sim.Policy, seed int64, validation sim.ValidationLevel) (*shardState, error) {
	x0, y0, w, h := pt.bounds(col, row)
	sub, err := m.Subgrid(x0, y0, w, h)
	if err != nil {
		return nil, err
	}
	s := &shardState{
		idx:        row*pt.grid.P + col,
		sub:        sub,
		router:     sim.NewNodeRouter(sub, policy, seed, validation),
		pt:         pt,
		byLocal:    make([][]*sim.Packet, sub.Len()),
		activeMark: make([]bool, sub.Len()),
		recvOf:     make([]int, m.DirCount()),
	}
	arcs := 0
	for l := 0; l < sub.Len(); l++ {
		arcs += sub.DegreeLocal(l)
	}
	backing := make([]*sim.Packet, arcs)
	off := 0
	for l := 0; l < sub.Len(); l++ {
		deg := sub.DegreeLocal(l)
		s.byLocal[l] = backing[off : off : off+deg]
		off += deg
	}
	wireEgress(s, pt.grid, m.Wrap(), col, row)
	return s, nil
}

// wireEgress computes, for shard (col, row), the receiver shard of each
// travel direction and allocates one egress bucket per distinct receiver.
func wireEgress(s *shardState, g Grid, wrap bool, col, row int) {
	for d := range s.recvOf {
		s.recvOf[d] = -1
		ncol, nrow := col, row
		switch mesh.Dir(d) {
		case mesh.DirPlus(0):
			ncol++
		case mesh.DirMinus(0):
			ncol--
		case mesh.DirPlus(1):
			nrow++
		case mesh.DirMinus(1):
			nrow--
		}
		if ncol < 0 || ncol >= g.P || nrow < 0 || nrow >= g.Q {
			if !wrap {
				continue // the arc leads off the mesh; nothing ever leaves this way
			}
			ncol = (ncol + g.P) % g.P
			nrow = (nrow + g.Q) % g.Q
		}
		recv := nrow*g.P + ncol
		if recv == s.idx {
			continue // wraps back into this shard: such moves are internal
		}
		b := -1
		for i, r := range s.recvShard {
			if r == recv {
				b = i
				break
			}
		}
		if b < 0 {
			b = len(s.recvShard)
			s.recvShard = append(s.recvShard, recv)
			s.egress = append(s.egress, nil)
		}
		s.recvOf[d] = b
	}
}

// Close stops the shard worker goroutines. Safe to call more than once; the
// engine must not be stepped after Close. Called automatically by a
// finalizer when the engine is collected.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			close(s.cmds)
		}
	})
}

// Accessors, mirroring sim.Engine's.

// Mesh returns the base mesh.
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// Policy returns the routing policy New was given (shards route with their
// own clones of it).
func (e *Engine) Policy() sim.Policy { return e.policy }

// Grid returns the shard decomposition.
func (e *Engine) Grid() Grid { return e.opts.Grid }

// Packets returns all packets of the problem. Callers must not mutate them.
func (e *Engine) Packets() []*sim.Packet { return e.packets }

// Time returns the current step index.
func (e *Engine) Time() int { return e.time }

// Live returns the number of packets still in the network.
func (e *Engine) Live() int { return e.live }

// Done reports whether every packet has arrived.
func (e *Engine) Done() bool { return e.live == 0 }

// Livelocked reports whether a repeated configuration was detected.
func (e *Engine) Livelocked() bool { return e.livelock }

// Recoveries returns how many checkpoint rollbacks Run performed after
// shard panics.
func (e *Engine) Recoveries() int { return e.recoveries }

// SetInjector installs a continuous traffic source, with the same contract
// as sim.Engine.SetInjector: injection happens at the beginning of every
// step before routing, and livelock detection is disabled (the
// configuration is no longer closed). Because the injection RNG is seeded
// exactly like the single engine's serial stream, a run with the same seed,
// injector and deterministic policy is bit-identical to a Workers>1 single
// engine's.
func (e *Engine) SetInjector(inj sim.Injector) {
	e.injector = inj
	e.livelockable = false
}

// InjectionCapacity implements sim.InjectorHost: how many packets can still
// be injected at the node this step without exceeding its out-degree.
func (e *Engine) InjectionCapacity(node mesh.NodeID) int {
	s := e.shards[e.pt.owner(node)]
	l := s.sub.LocalID(node)
	c := s.sub.DegreeLocal(l) - len(s.byLocal[l])
	if c < 0 {
		return 0
	}
	return c
}

// NextPacketID implements sim.InjectorHost: a fresh packet ID, unique
// within this engine.
func (e *Engine) NextPacketID() int {
	id := e.nextID
	e.nextID++
	return id
}

var _ sim.InjectorHost = (*Engine)(nil)

// inject runs the installed injector and validates its output with the
// single engine's rules (sharded runs carry no fault model, so the graceful
// DropInject path does not apply — any capacity violation is an injector
// bug and a hard error). Runs coordinator-side between step barriers, so it
// may touch shard queues freely.
func (e *Engine) inject() error {
	floor := e.nextID
	for _, s := range e.shards {
		s.sorted = len(s.active)
	}
	newPackets := e.injector.Inject(e.time, e, e.injRng)
	for _, p := range newPackets {
		if p == nil {
			return fmt.Errorf("%w: injector returned nil packet at step %d", sim.ErrBadInjection, e.time)
		}
		if err := e.mesh.CheckID(p.Src); err != nil {
			return fmt.Errorf("%w: injected packet %d source: %v", sim.ErrBadInjection, p.ID, err)
		}
		if err := e.mesh.CheckID(p.Dst); err != nil {
			return fmt.Errorf("%w: injected packet %d destination: %v", sim.ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return fmt.Errorf("%w: injected packet %d not at its source", sim.ErrBadInjection, p.ID)
		}
		if p.ID < floor {
			return fmt.Errorf("%w: injected packet reuses id %d (or breaks the increasing-id contract, watermark %d) at step %d",
				sim.ErrBadInjection, p.ID, floor, e.time)
		}
		floor = p.ID + 1
		if p.ID >= e.nextID {
			e.nextID = p.ID + 1
		}
		e.packets = append(e.packets, p)
		p.InjectedAt = e.time
		p.Cause = sim.DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = e.time
			continue
		}
		p.ArrivedAt = -1
		s := e.shards[e.pt.owner(p.Src)]
		l := s.sub.LocalID(p.Src)
		if len(s.byLocal[l]) >= s.sub.DegreeLocal(l) {
			return fmt.Errorf("%w: step %d node %d injection exceeds out-degree %d",
				sim.ErrBadInjection, e.time, p.Src, s.sub.DegreeLocal(l))
		}
		s.enqueue(p)
		e.live++
	}
	for _, s := range e.shards {
		s.mergeBuf = sim.MergeTail(s.active, s.sorted, s.mergeBuf)
	}
	return nil
}

// Progress returns the engine's current progress counters, shaped exactly
// like sim.Engine.Progress so frontends can report either engine through
// one code path. Sharded runs never drop or absorb packets (no fault
// injection), so those counters are always zero.
func (e *Engine) Progress() sim.Progress {
	return sim.Progress{
		Time:             e.time,
		Live:             e.live,
		Delivered:        len(e.packets) - e.live,
		Total:            len(e.packets),
		TotalHops:        e.totalHops,
		TotalDeflections: e.totalDeflections,
		MaxNodeLoad:      e.maxNodeLoad,
	}
}

// work is the shard worker loop: one phase per barrier, panic-isolated.
func (s *shardState) work() {
	for cmd := range s.cmds {
		s.runPhase(cmd)
		s.wg.Done()
	}
}

func (s *shardState) runPhase(cmd phaseCmd) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("%w: shard %d, step %d: %v", ErrShardPanic, s.idx, cmd.t, r)
		}
	}()
	switch cmd.phase {
	case phaseRoute:
		s.err = s.route(cmd.t)
	case phaseApply:
		s.apply(cmd.t)
	}
}

// phase broadcasts one phase to every shard and waits for the barrier. The
// WaitGroup gives the coordinator (and, transitively, the next phase's
// workers) a happens-before edge over everything the shards wrote.
func (e *Engine) phase(ph, t int) error {
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.err = nil
		s.cmds <- phaseCmd{phase: ph, t: t}
	}
	e.wg.Wait()
	for _, s := range e.shards {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// route routes every active node of the shard in ascending global-node
// order, staging each move in the internal list or the egress bucket of the
// receiving shard. Within every staging list, moves are appended in
// (source node, queue position) order — the single engine's application
// order restricted to that list — which is what the receivers' merge relies
// on.
func (s *shardState) route(t int) error {
	s.internal = s.internal[:0]
	for b := range s.egress {
		s.egress[b] = s.egress[b][:0]
	}
	var buf [2 * mesh.MaxDim]sim.Move
	for _, l := range s.active {
		pkts := s.byLocal[l]
		node := s.sub.GlobalID(int(l))
		dst := buf[:len(pkts)]
		if err := s.router.RouteNode(node, t, pkts, dst); err != nil {
			return err
		}
		for i := range dst {
			if s.sub.Owns(dst[i].To) {
				s.internal = append(s.internal, dst[i])
				continue
			}
			b := s.recvOf[dst[i].Dir]
			if b < 0 {
				return fmt.Errorf("shard: internal error: shard %d step %d move %d->%d via %v has no receiver",
					s.idx, t, dst[i].From, dst[i].To, dst[i].Dir)
			}
			s.egress[b] = append(s.egress[b], dst[i])
		}
	}
	return nil
}

// apply empties the shard's queues and applies the moves destined to it —
// its internal list merged with the ingress buckets — in ascending global
// source-node order. Each staging list is sorted by source node (route's
// invariant) and the lists' source sets are disjoint (every node has one
// owner), so a k-way min-merge on Move.From reproduces exactly the single
// engine's per-destination enqueue order; queue order is routing-relevant
// state, so this is where sharded equals unsharded.
func (s *shardState) apply(t int) {
	s.clearQueues()
	var lists [maxMergeLists][]sim.Move
	n := 0
	if len(s.internal) > 0 {
		lists[n] = s.internal
		n++
	}
	for _, in := range s.ingress {
		if len(*in) > 0 {
			lists[n] = *in
			n++
		}
	}
	s.merge(t, lists[:n])
	s.sortActive()
}

// maxMergeLists bounds how many staging lists one shard's apply can merge:
// its internal list plus one per distinct sending neighbor shard. Buckets
// are receiver-keyed on the sender, so each of the at most four neighbor
// shards (fewer when torus wrap aliases them) contributes one list.
const maxMergeLists = 5

// clearQueues empties every queue and the active set — the first half of
// apply, also used when (re)loading shard state from a checkpoint part.
func (s *shardState) clearQueues() {
	for _, l := range s.active {
		s.byLocal[l] = s.byLocal[l][:0]
		s.activeMark[l] = false
	}
	s.active = s.active[:0]
}

// merge applies the staging lists by k-way min-merge on Move.From. Each list
// is sorted by source node (route's invariant) and the lists' source sets
// are disjoint (every node has one owner), so the merge reproduces exactly
// the single engine's per-destination enqueue order. When s.finalized is
// non-nil (the distributed Node), arrived packets are additionally collected
// there, since no surrounding Engine tracks them.
func (s *shardState) merge(t int, lists [][]sim.Move) {
	n := len(lists)
	for n > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if lists[i][0].From < lists[best][0].From {
				best = i
			}
		}
		mv := &lists[best][0]
		p := mv.Packet
		p.GoodPrev = mv.GoodCount
		p.RestrictedPrev = mv.WasRestricted
		p.AdvancedPrev = mv.Advanced
		p.Node = mv.To
		p.EnteredVia = mv.Dir
		p.Hops++
		s.hops++
		if !mv.Advanced {
			p.Deflections++
			s.deflections++
		}
		if mv.ArrivedNow {
			p.ArrivedAt = t + 1
			s.arrivals++
			s.lastArrival = t + 1
			if s.finalized != nil {
				*s.finalized = append(*s.finalized, p)
			}
		} else {
			s.enqueue(p)
		}
		if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
			lists[best] = lists[n-1]
			n--
		}
	}
}

func (s *shardState) enqueue(p *sim.Packet) {
	l := int32(s.sub.LocalID(p.Node))
	if len(s.byLocal[l]) == 0 && !s.activeMark[l] {
		s.activeMark[l] = true
		s.active = append(s.active, l)
	}
	s.byLocal[l] = append(s.byLocal[l], p)
}

// sortActive restores local-id order (which is global-id order within the
// shard) after apply perturbed it: dense sets rebuild from the mark bitmap,
// sparse sets fall back to slices.Sort — sim.Engine's scheme.
func (s *shardState) sortActive() {
	a := s.active
	if len(a) <= 1 {
		return
	}
	if len(a)*4 >= len(s.activeMark) {
		a = a[:0]
		for l, mark := range s.activeMark {
			if mark {
				a = append(a, int32(l))
			}
		}
		s.active = a
		return
	}
	slices.Sort(a)
}

// Step advances the simulation by one synchronous step: a route barrier, an
// apply barrier (the halo exchange happens between the two — receivers read
// their neighbors' egress buckets), then coordinator bookkeeping.
//
// With Options.MaxRecoveries, a step that fails with a crash-class error (a
// shard or policy panic) rolls every shard back to the last coordinated
// checkpoint instead — kept in memory, refreshed by SaveCheckpoint or at
// least every recoveryCadence steps — and returns nil, so the run replays
// from there. A validation error is deterministic and always surfaces.
func (e *Engine) Step() error {
	if e.opts.MaxRecoveries > 0 && (e.lastCK == nil || e.sinceCapture >= recoveryCadence) {
		ck, err := e.Checkpoint()
		if err != nil {
			return err
		}
		e.lastCK, e.sinceCapture = ck, 0
	}
	err := e.step()
	if err != nil && e.lastCK != nil && e.recoveries < e.opts.MaxRecoveries && recoverableErr(err) {
		e.recoveries++
		if rerr := e.loadCheckpoint(e.lastCK); rerr != nil {
			return errors.Join(err, fmt.Errorf("shard: rollback failed: %w", rerr))
		}
		e.sinceCapture = 0
		return nil
	}
	e.sinceCapture++
	return err
}

func (e *Engine) step() error {
	t := e.time
	if e.injector != nil {
		if err := e.inject(); err != nil {
			return err
		}
	}
	if err := e.phase(phaseRoute, t); err != nil {
		return err
	}
	if err := e.phase(phaseApply, t); err != nil {
		return err
	}
	e.time = t + 1
	for _, s := range e.shards {
		e.totalHops += s.hops
		s.hops = 0
		e.totalDeflections += s.deflections
		s.deflections = 0
		e.live -= s.arrivals
		s.arrivals = 0
		if s.lastArrival > e.lastArrival {
			e.lastArrival = s.lastArrival
		}
		e.reroutes += s.router.Reroutes
		s.router.Reroutes = 0
		if s.router.MaxNodeLoad > e.maxNodeLoad {
			e.maxNodeLoad = s.router.MaxNodeLoad
		}
		s.router.MaxNodeLoad = 0
	}
	if e.livelockable && e.live > 0 {
		h := e.stateHash()
		if _, dup := e.seen[h]; dup {
			e.livelock = true
		} else {
			e.seen[h] = e.time
		}
	}
	return nil
}

// stateHash folds every live packet in queue order over the globally-sorted
// active nodes — rows in ascending y, shard columns left to right within a
// row, owned nodes in ascending x — reproducing sim.Engine's stateHash fold
// exactly. Within a shard, the active nodes of one global row form a
// contiguous local-id range, found by binary search in the sorted active
// list.
func (e *Engine) stateHash() uint64 {
	h := sim.ConfigHashSeed
	g := e.pt.grid
	for r := 0; r < g.Q; r++ {
		band := e.shards[r*g.P : (r+1)*g.P]
		_, y0, _, bh := band[0].sub.Bounds()
		for y := y0; y < y0+bh; y++ {
			for _, s := range band {
				_, sy0, w, _ := s.sub.Bounds()
				lo := int32((y - sy0) * w)
				hi := lo + int32(w)
				a := s.active
				i := sort.Search(len(a), func(i int) bool { return a[i] >= lo })
				for ; i < len(a) && a[i] < hi; i++ {
					for _, p := range s.byLocal[a[i]] {
						h = sim.ConfigHashPacket(h, p)
					}
				}
			}
		}
	}
	return h
}

// StateHash returns the engine's configuration hash, bit-identical to the
// equivalent sim.Engine.StateHash in the same configuration — the package's
// parity contract. Valid between steps.
func (e *Engine) StateHash() uint64 { return e.stateHash() }

// Runnable reports whether the run has work left: packets in flight or an
// injector still producing, no livelock, and step budget remaining.
func (e *Engine) Runnable() bool {
	return (e.live > 0 || (e.injector != nil && !e.injector.Exhausted(e.time))) &&
		!e.livelock && e.time < e.opts.MaxSteps
}

// Run steps the engine until every packet arrives, a livelock is detected,
// or the step budget is exhausted, and returns the summary. The Result type
// is sim's: a sharded run summarizes identically to a single-shard one.
func (e *Engine) Run() (*sim.Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run under ctx, with sim.Drive's stop contract.
func (e *Engine) RunContext(ctx context.Context) (*sim.Result, error) {
	return sim.Drive(ctx, e, sim.DriveOptions{})
}

// SaveCheckpoint captures a coordinated checkpoint and writes it to dir
// with SaveDir. With recovery enabled it also becomes the rollback point.
func (e *Engine) SaveCheckpoint(dir string, format checkpoint.Format) error {
	ck, err := e.Checkpoint()
	if err != nil {
		return err
	}
	if e.opts.MaxRecoveries > 0 {
		e.lastCK, e.sinceCapture = ck, 0
	}
	return SaveDir(dir, ck, format)
}

// recoverableErr reports whether a step error is a crash-class failure —
// a panic that escaped a shard worker or one the router caught inside a
// policy — as opposed to a validation error, which is deterministic and
// would only repeat on replay.
func recoverableErr(err error) bool {
	return errors.Is(err, ErrShardPanic) || errors.Is(err, sim.ErrPolicyPanic)
}

// Result summarizes the run so far.
func (e *Engine) Result() *sim.Result {
	return &sim.Result{
		Steps:            e.lastArrival,
		Delivered:        len(e.packets) - e.live,
		Total:            len(e.packets),
		Livelocked:       e.livelock,
		HitMaxSteps:      e.live > 0 && !e.livelock && e.time >= e.opts.MaxSteps,
		TotalDeflections: e.totalDeflections,
		TotalHops:        e.totalHops,
		MaxNodeLoad:      e.maxNodeLoad,
		Reroutes:         e.reroutes,
	}
}
