// Package sim implements the synchronous hot-potato routing model of the
// paper (Section 2): packets originate at time 0, every node forwards every
// packet it holds on a distinct outgoing arc in every step (no buffering),
// and at most one packet traverses each directed arc per step.
//
// The engine is policy-agnostic: a Policy supplies the uniform local
// decision rule, and the engine enforces (optionally, per validation level)
// the model constraints, the greediness condition of Definition 6 and the
// restricted-preference condition of Definition 18. It also detects
// livelock for deterministic policies by configuration hashing.
package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
)

// ValidationLevel selects how strictly the engine checks policy output.
type ValidationLevel int

const (
	// ValidateOff performs no per-step checking (fastest).
	ValidateOff ValidationLevel = iota
	// ValidateBasic checks model legality every step: every packet assigned a
	// distinct, existing outgoing arc.
	ValidateBasic
	// ValidateGreedy additionally checks Definition 6: a deflected packet
	// must have every good arc used by an advancing packet.
	ValidateGreedy
	// ValidateRestricted additionally checks Definition 18: a restricted
	// packet is never deflected by a non-restricted packet.
	ValidateRestricted
)

// Sentinel errors for validation failures. Step/Run wrap them with context.
var (
	// ErrUnassigned is returned when a policy leaves a packet without an
	// outgoing arc (violating the hot-potato constraint).
	ErrUnassigned = errors.New("sim: packet not assigned an outgoing arc")
	// ErrOffMesh is returned when a policy routes a packet off the mesh.
	ErrOffMesh = errors.New("sim: packet routed off the mesh")
	// ErrLinkConflict is returned when two packets are assigned the same
	// outgoing arc.
	ErrLinkConflict = errors.New("sim: two packets assigned the same arc")
	// ErrNotGreedy is returned when a deflection violates Definition 6.
	ErrNotGreedy = errors.New("sim: deflection violates greediness (Definition 6)")
	// ErrNotRestrictedPreferring is returned when a non-restricted packet
	// deflects a restricted one, violating Definition 18.
	ErrNotRestrictedPreferring = errors.New("sim: non-restricted packet deflected a restricted one (Definition 18)")
	// ErrBadInjection is returned by New for ill-formed initial
	// configurations.
	ErrBadInjection = errors.New("sim: invalid initial configuration")
	// ErrPolicyPanic is returned by Step/Run when a policy's Route panics.
	// The panic is recovered (also inside worker goroutines) and surfaced
	// as an error so a buggy policy cannot crash a sweep.
	ErrPolicyPanic = errors.New("sim: policy panicked")
)

// DefaultMaxSteps is the step budget used when Options.MaxSteps is zero.
const DefaultMaxSteps = 1 << 20

// InjectorHost is the engine surface an Injector sees: the geometry, the
// per-node injection room and the fresh-ID source. Both the single engine
// (*Engine) and the sharded engine (shard.Engine) implement it, so one
// injector drives either — and because the sharded engine seeds its
// injection RNG exactly like the single engine's serial stream, a
// deterministic injector produces bit-identical traffic on both.
type InjectorHost interface {
	// Mesh returns the intact base mesh (geometric ground truth).
	Mesh() *mesh.Mesh
	// InjectionCapacity returns how many packets can still be injected at
	// the node this step without exceeding its out-degree.
	InjectionCapacity(node mesh.NodeID) int
	// NextPacketID returns a fresh packet ID, unique within the engine.
	NextPacketID() int
}

// Injector supplies packets to inject at the beginning of each step,
// turning the batch engine into a continuous-traffic simulator (the
// steady-state regime of the deflection-network studies the paper cites:
// [GG], [Ma], [ZA]). Implementations must respect the model's injection
// constraint: after injection, no node may hold more packets than its
// out-degree — use InjectorHost.InjectionCapacity to learn the per-node
// room. Returned packets must sit at their sources with fresh IDs at or
// above the engine's ID watermark — every ID ever accepted stays below the
// watermark, so any monotonically increasing scheme works and NextPacketID
// always satisfies the contract. IDs below the watermark are rejected as
// reused.
type Injector interface {
	// Inject returns the packets entering the network at step t. The rng
	// is the engine's deterministic source.
	Inject(t int, host InjectorHost, rng *rand.Rand) []*Packet
	// Exhausted reports that the source will never inject again (e.g. its
	// generation window closed and its backlog drained); Run then stops as
	// soon as the network empties. A source that never exhausts runs to
	// the step budget.
	Exhausted(t int) bool
}

// Options configures an Engine.
type Options struct {
	// MaxSteps bounds the simulation length; 0 means DefaultMaxSteps.
	MaxSteps int
	// Seed seeds the engine's deterministic RNG (used by randomized
	// policies for tie-breaking).
	Seed int64
	// Validation selects per-step checking of policy output.
	Validation ValidationLevel
	// DetectLivelock enables configuration hashing to detect repeated
	// states. It only takes effect for deterministic policies (a repeated
	// state under a randomized policy does not imply a loop).
	DetectLivelock bool
	// Workers > 1 routes the nodes of each step concurrently on that many
	// goroutines. The policy must implement ClonablePolicy (each worker
	// gets its own scratch). Tie-break randomness is then derived per
	// (seed, step, node), so results are deterministic for a given seed
	// and independent of the worker count — but they differ from the
	// serial path's shared-stream sampling (both are equally valid members
	// of the same policy; deterministic policies produce identical results
	// on every path).
	Workers int
}

// ClonablePolicy is implemented by policies whose per-engine scratch state
// can be duplicated for concurrent use by Options.Workers.
type ClonablePolicy interface {
	Policy
	// Clone returns a policy with identical behavior and fresh scratch.
	Clone() Policy
}

// Result summarizes a completed Run.
type Result struct {
	// Steps is the routing time: the step at which the last packet reached
	// its destination (0 if every packet originated at its destination).
	Steps int
	// Delivered is the number of packets that reached their destinations.
	Delivered int
	// Total is the number of packets in the problem.
	Total int
	// Livelocked reports that a configuration repeated under a
	// deterministic policy, so the run would loop forever.
	Livelocked bool
	// HitMaxSteps reports that the step budget was exhausted first.
	HitMaxSteps bool
	// TotalDeflections counts packet-steps moving away from destinations.
	TotalDeflections int64
	// TotalHops counts all packet movements.
	TotalHops int64
	// MaxNodeLoad is the largest number of packets observed in one node at
	// the beginning of a step.
	MaxNodeLoad int

	// Dropped is the number of packets removed undelivered by fault
	// degradation (all causes; always Delivered + Dropped + Absorbed +
	// live-at-exit == Total).
	Dropped int
	// Absorbed is the number of crash victims terminated at their crashing
	// node under FateAbsorb (counted separately from drops).
	Absorbed int
	// DroppedCrash counts drops of packets caught in a crashing node
	// (FateDrop only; under FateAbsorb they count in Absorbed instead).
	DroppedCrash int
	// DroppedUnreachable counts drops of packets whose destination was down
	// when the failure set changed.
	DroppedUnreachable int
	// DroppedStranded counts drops of packets shed because a node's
	// surviving out-degree fell below its load.
	DroppedStranded int
	// DroppedInject counts injected packets refused gracefully because the
	// failure set left no room for them.
	DroppedInject int
	// LinkFailures and NodeFailures are the cumulative fault transitions
	// applied over the run (0 without a fault model).
	LinkFailures int
	NodeFailures int
	// Reroutes counts packet-steps in which a packet had no surviving good
	// arc (all its geometrically good arcs were down), so every available
	// move was a forced, fault-induced deflection.
	Reroutes int64
	// DeadlineExceeded reports that the run's context deadline cut it short
	// (see Drive).
	DeadlineExceeded bool
}

// Engine runs one routing problem under one policy.
type Engine struct {
	mesh    *mesh.Mesh
	topo    mesh.Topology // routing view: flat mesh tables, or overlay under faults
	fast    *mesh.Tables  // non-nil iff topo is the intact mesh's table view
	policy  Policy
	packets []*Packet
	opts    Options
	// rng is the serial tie-break and injection stream, backed by an inline
	// SplitMix64 source: seeding is one store instead of the ~5 KB state
	// expansion of the default Go source, which dominated engine
	// construction in sweeps that build thousands of engines.
	rng *rand.Rand
	src rng.SplitMix64

	time        int
	live        int
	lastArrival int
	byNode      [][]*Packet
	active      []mesh.NodeID
	activeMark  []bool
	mergeBuf    []mesh.NodeID // MergeTail scratch for the injection site
	observers   []Observer

	// conflictObs is the opt-in conflict tap (SetConflictObserver); confRec
	// is its engine-owned scratch record, reused across emissions so the
	// traced hot path stays allocation-free once warm. Nil observer = one
	// predicted branch per step, nothing else.
	conflictObs ConflictObserver
	confRec     ConflictRecord

	livelock     bool
	livelockable bool
	seen         map[uint64]int
	injector     Injector
	// ids holds the IDs of the outstanding (live) packets only; finalized
	// IDs are covered by the nextID watermark (every ID ever accepted is
	// below it), so memory stays proportional to the packets in flight, not
	// to the total injected over a long run.
	ids    map[int]struct{}
	nextID int

	// Fault state (nil/zero without SetFaults).
	faults       FaultModel
	overlay      *mesh.Overlay
	faultRng     *rand.Rand
	faultVersion uint64
	fate         PacketFate

	totalDeflections int64
	totalHops        int64
	maxNodeLoad      int
	reroutes         int64

	dropped         int
	absorbed        int
	dropCrash       int
	dropUnreachable int
	dropStranded    int
	dropInject      int

	// Reusable routing scratch: one for the serial path, one per pool
	// worker when Options.Workers > 1.
	scratch *routeScratch
	workers []*routeScratch
	pool    *workerPool
	// moves is the per-step move buffer, written in place in active-node
	// order (the parallel path writes each node's segment at moveOff).
	moves   []Move
	moveOff []int
}

// New validates the initial configuration and returns an engine positioned
// at time 0. Packets whose source equals their destination are absorbed
// immediately (ArrivedAt = 0). The engine takes ownership of the packets.
//
// The initial configuration must satisfy the paper's many-to-many model: no
// node is the origin of more packets than its out-degree.
func New(m *mesh.Mesh, policy Policy, packets []*Packet, opts Options) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil mesh", ErrBadInjection)
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrBadInjection)
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	tab := m.Tables()
	e := &Engine{
		mesh:         m,
		topo:         tab,
		fast:         tab,
		policy:       policy,
		packets:      packets,
		opts:         opts,
		byNode:       make([][]*Packet, m.Size()),
		activeMark:   make([]bool, m.Size()),
		livelockable: opts.DetectLivelock && policy.Deterministic(),
	}
	e.src.Seed(rng.Mix(opts.Seed))
	e.rng = rand.New(&e.src)
	// One contiguous backing array for all per-node queues: a node never
	// holds more packets than its out-degree, so slicing each queue to its
	// degree's capacity makes enqueue allocation-free for the whole run.
	queueBacking := make([]*Packet, m.ArcCount())
	off := 0
	for id := range e.byNode {
		deg := tab.Degree(mesh.NodeID(id))
		e.byNode[id] = queueBacking[off : off : off+deg]
		off += deg
	}
	if e.livelockable {
		e.seen = make(map[uint64]int)
	}
	e.scratch = e.newScratch(policy)
	if opts.Workers > 1 {
		cp, ok := policy.(ClonablePolicy)
		if !ok {
			return nil, fmt.Errorf("%w: policy %s does not implement ClonablePolicy (required by Workers=%d)",
				ErrBadInjection, policy.Name(), opts.Workers)
		}
		for w := 0; w < opts.Workers; w++ {
			e.workers = append(e.workers, e.newScratch(cp.Clone()))
		}
	}

	e.ids = make(map[int]struct{}, len(packets))
	for _, p := range packets {
		if p == nil {
			return nil, fmt.Errorf("%w: nil packet", ErrBadInjection)
		}
		if err := m.CheckID(p.Src); err != nil {
			return nil, fmt.Errorf("%w: packet %d source: %v", ErrBadInjection, p.ID, err)
		}
		if err := m.CheckID(p.Dst); err != nil {
			return nil, fmt.Errorf("%w: packet %d destination: %v", ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return nil, fmt.Errorf("%w: packet %d not at its source", ErrBadInjection, p.ID)
		}
		if _, dup := e.ids[p.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate packet id %d", ErrBadInjection, p.ID)
		}
		e.ids[p.ID] = struct{}{}
		if p.ID >= e.nextID {
			e.nextID = p.ID + 1
		}
		p.Cause = DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = 0
			delete(e.ids, p.ID) // finalized immediately; the watermark covers it
			continue
		}
		p.ArrivedAt = -1
		e.enqueue(p)
		e.live++
	}
	for _, node := range e.active {
		if deg := m.Degree(node); len(e.byNode[node]) > deg {
			return nil, fmt.Errorf("%w: node %d originates %d packets, out-degree %d",
				ErrBadInjection, node, len(e.byNode[node]), deg)
		}
	}
	e.moves = make([]Move, 0, e.live)
	e.sortActive()
	if opts.Workers > 1 {
		e.pool = newWorkerPool(e.workers)
		// Stop the pool goroutines when the engine is garbage collected, so
		// sweeps that build thousands of engines and never call Close do not
		// leak them. Workers hold no reference back to the engine between
		// steps, so collection is not prevented.
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	return e, nil
}

// Close releases the engine's worker pool goroutines (a no-op for serial
// engines, and safe to call more than once). It is called automatically by
// a finalizer when the engine is collected, so calling it is optional; it
// just makes the release deterministic. The engine must not be stepped
// after Close.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
	}
}

func (e *Engine) enqueue(p *Packet) {
	if len(e.byNode[p.Node]) == 0 && !e.activeMark[p.Node] {
		e.activeMark[p.Node] = true
		e.active = append(e.active, p.Node)
	}
	e.byNode[p.Node] = append(e.byNode[p.Node], p)
}

// sortActive restores the sorted order of the active list after a step's
// move application (or a construction or restore) rebuilt it in arbitrary
// order; injection merges instead (MergeTail). For dense active sets the
// list is rebuilt by a single ordered scan of the activeMark bitmap —
// an int-keyed counting pass with no comparisons at all; sparse sets fall
// back to slices.Sort. Both paths are allocation-free.
func (e *Engine) sortActive() {
	a := e.active
	if len(a) <= 1 {
		return
	}
	if len(a)*4 >= len(e.activeMark) {
		a = a[:0]
		for id, mark := range e.activeMark {
			if mark {
				a = append(a, mesh.NodeID(id))
			}
		}
		e.active = a
		return
	}
	slices.Sort(a)
}

// MergeTail restores the ascending order of a list whose prefix a[:n] is
// already sorted and whose tail a[n:] holds newly added elements, distinct
// from the prefix and from each other, in any order. Only the tail is
// sorted; it is then merged into the prefix from the back, so a step that
// activates m nodes on a list of n costs O(m log m) plus the shifted
// elements instead of a full re-sort. buf is reusable scratch and is
// returned, possibly grown. Both engines use it at their injection site;
// traffic.Source uses it for its waiting list.
func MergeTail[T cmp.Ordered](a []T, n int, buf []T) []T {
	tail := a[n:]
	if len(tail) == 0 {
		return buf
	}
	slices.Sort(tail)
	if n == 0 || a[n-1] < tail[0] {
		return buf
	}
	buf = append(buf[:0], tail...)
	i, j := n-1, len(buf)-1
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > buf[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = buf[j]
			j--
		}
	}
	return buf
}

// AddObserver registers an observer to run after every step.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// SetInjector installs a continuous traffic source. Injection happens at
// the beginning of every step, before routing. Installing an injector
// disables livelock detection (the configuration is no longer closed).
func (e *Engine) SetInjector(inj Injector) {
	e.injector = inj
	e.livelockable = false
}

// InjectionCapacity returns how many packets can still be injected at the
// node this step without exceeding its out-degree — the surviving
// out-degree when a fault model is installed, so injectors automatically
// respect reduced capacity. The value reflects the engine state when
// called: an Injector returning several packets for the same node in one
// Inject call must count its own earlier picks against the capacity
// itself.
func (e *Engine) InjectionCapacity(node mesh.NodeID) int {
	c := e.topo.Degree(node) - len(e.byNode[node])
	if c < 0 {
		return 0
	}
	return c
}

// NextPacketID returns a fresh packet ID, unique within this engine, for
// injectors to use.
func (e *Engine) NextPacketID() int {
	id := e.nextID
	e.nextID++
	return id
}

// inject runs the installed injector and validates its output. Injector
// bugs — nil packets, off-mesh endpoints, reused IDs, exceeding the intact
// mesh's capacity — are hard errors; packets the current failure set leaves
// no room for (source or destination down, surviving degree already full)
// are refused gracefully with cause DropInject.
func (e *Engine) inject() error {
	// Freshness floor: the watermark before the injector ran. IDs the
	// injector drew from NextPacketID during this call sit between floor and
	// the advanced e.nextID and are fresh by construction.
	floor := e.nextID
	sorted := len(e.active) // the active list is sorted up to here
	newPackets := e.injector.Inject(e.time, e, e.rng)
	for _, p := range newPackets {
		if p == nil {
			return fmt.Errorf("%w: injector returned nil packet at step %d", ErrBadInjection, e.time)
		}
		if err := e.mesh.CheckID(p.Src); err != nil {
			return fmt.Errorf("%w: injected packet %d source: %v", ErrBadInjection, p.ID, err)
		}
		if err := e.mesh.CheckID(p.Dst); err != nil {
			return fmt.Errorf("%w: injected packet %d destination: %v", ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return fmt.Errorf("%w: injected packet %d not at its source", ErrBadInjection, p.ID)
		}
		// Freshness is enforced with the ID watermark: every ID accepted
		// before this batch is below floor, and the floor then climbs past
		// each accepted packet, so reused IDs and duplicates within the
		// batch are rejected while anything monotone (NextPacketID in
		// particular) passes. This keeps the used-ID record O(1) instead of
		// growing with every injection.
		if p.ID < floor {
			return fmt.Errorf("%w: injected packet reuses id %d (or breaks the increasing-id contract, watermark %d) at step %d",
				ErrBadInjection, p.ID, floor, e.time)
		}
		floor = p.ID + 1
		if p.ID >= e.nextID {
			e.nextID = p.ID + 1
		}
		e.packets = append(e.packets, p)
		p.InjectedAt = e.time
		p.Cause = DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = e.time
			continue
		}
		p.ArrivedAt = -1
		if e.overlay != nil && (e.overlay.NodeDown(p.Src) || e.overlay.NodeDown(p.Dst)) {
			e.markDropped(p, DropInject)
			continue
		}
		if len(e.byNode[p.Src]) >= e.topo.Degree(p.Src) {
			if len(e.byNode[p.Src]) >= e.mesh.Degree(p.Src) {
				return fmt.Errorf("%w: step %d node %d injection exceeds out-degree %d",
					ErrBadInjection, e.time, p.Src, e.mesh.Degree(p.Src))
			}
			// There would be room on the intact mesh: the injector is fine,
			// the failure set ate the capacity.
			e.markDropped(p, DropInject)
			continue
		}
		e.ids[p.ID] = struct{}{}
		e.enqueue(p)
		e.live++
	}
	e.mergeBuf = MergeTail(e.active, sorted, e.mergeBuf)
	return nil
}

// Mesh returns the intact base mesh. Under an installed fault model the
// engine routes against Topology() instead; Mesh stays the geometric
// ground truth (sizes, distances, coordinates).
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// Policy returns the routing policy.
func (e *Engine) Policy() Policy { return e.policy }

// Packets returns all packets of the problem (live and arrived). Callers
// must not mutate them.
func (e *Engine) Packets() []*Packet { return e.packets }

// PacketsAt returns the packets currently at the given node. The slice is
// engine-owned and valid until the next Step.
func (e *Engine) PacketsAt(node mesh.NodeID) []*Packet { return e.byNode[node] }

// Time returns the current step index.
func (e *Engine) Time() int { return e.time }

// Live returns the number of packets still in the network.
func (e *Engine) Live() int { return e.live }

// Done reports whether every packet has arrived.
func (e *Engine) Done() bool { return e.live == 0 }

// Livelocked reports whether a repeated configuration was detected.
func (e *Engine) Livelocked() bool { return e.livelock }

// routeScratch is the per-worker routing state: one exists for the serial
// path, and one per pool goroutine in the parallel path.
type routeScratch struct {
	ns          NodeState
	out         []mesh.Dir
	dirOwner    []int
	policy      Policy
	src         rng.SplitMix64
	rnd         *rand.Rand
	maxNodeLoad int
	reroutes    int64 // per-step count, drained by Step/routeParallel
}

func (e *Engine) newScratch(policy Policy) *routeScratch {
	sc := &routeScratch{
		out:      make([]mesh.Dir, 0, e.mesh.DirCount()),
		dirOwner: make([]int, e.mesh.DirCount()),
		policy:   policy,
	}
	sc.ns.Mesh = e.topo
	sc.ns.infos = make([]PacketInfo, 0, e.mesh.DirCount())
	sc.rnd = rand.New(&sc.src)
	return sc
}

// fillInfo computes PacketInfo for every packet of the scratch node state.
// Good directions come from the routing topology, so under faults they are
// the surviving good arcs; a live packet with GoodCount == 0 (possible only
// when faults cut every geometrically good arc) is a forced reroute.
// The infos are filled in place (never copied through a stack temporary):
// passing a fresh PacketInfo's buffer to an interface call makes it escape,
// which used to be the engine's dominant allocation.
func (sc *routeScratch) fillInfo(topo mesh.Topology, fast *mesh.Tables) {
	ns := &sc.ns
	if cap(ns.infos) < len(ns.Packets) {
		ns.infos = make([]PacketInfo, len(ns.Packets))
	} else {
		ns.infos = ns.infos[:len(ns.Packets)]
	}
	for i, p := range ns.Packets {
		pi := &ns.infos[i]
		if fast != nil {
			pi.GoodCount = fast.GoodDirsInto(p.Node, p.Dst, &pi.goodBuf)
		} else {
			pi.GoodCount = len(topo.GoodDirs(p.Node, p.Dst, pi.goodBuf[:0]))
		}
		if pi.GoodCount == 0 {
			sc.reroutes++
		}
		pi.Restricted = pi.GoodCount == 1
		pi.TypeA = pi.Restricted && p.RestrictedPrev && p.AdvancedPrev
	}
}

// routePolicy invokes the policy with panic isolation: a panicking Route
// surfaces as an ErrPolicyPanic instead of tearing down the process (or, in
// the parallel path, deadlocking a worker pool).
func (sc *routeScratch) routePolicy(rnd *rand.Rand) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: policy %s: %v", ErrPolicyPanic, sc.policy.Name(), r)
		}
	}()
	sc.policy.Route(&sc.ns, sc.out, rnd)
	return nil
}

// goodContains reports whether dir belongs to the packet's (surviving) good
// set. fillInfo already computed the set, so a scan of its at-most-2·dim
// entries replaces a coordinate-arithmetic IsGoodDir call on the hot path —
// and under faults it automatically means "surviving good arc".
func goodContains(pi *PacketInfo, dir mesh.Dir) bool {
	for _, g := range pi.Good() {
		if g == dir {
			return true
		}
	}
	return false
}

// validate checks the assignment for the scratch node state according to
// the configured validation level. dirOwner is rebuilt as a side effect.
func (e *Engine) validate(sc *routeScratch) error {
	ns := &sc.ns
	out := sc.out
	fast := e.fast
	dirCount := e.mesh.DirCount()
	for i := range sc.dirOwner {
		sc.dirOwner[i] = -1
	}
	for i, dir := range out {
		p := ns.Packets[i]
		if dir < 0 || int(dir) >= dirCount {
			return fmt.Errorf("%w: step %d node %d packet %d (dir %d)",
				ErrUnassigned, ns.Time, ns.Node, p.ID, dir)
		}
		var hasArc bool
		if fast != nil {
			hasArc = fast.HasArc(ns.Node, dir)
		} else {
			hasArc = e.topo.HasArc(ns.Node, dir)
		}
		if !hasArc {
			return fmt.Errorf("%w: step %d node %d packet %d via %v",
				ErrOffMesh, ns.Time, ns.Node, p.ID, dir)
		}
		if prev := sc.dirOwner[dir]; prev >= 0 {
			return fmt.Errorf("%w: step %d node %d packets %d and %d both via %v",
				ErrLinkConflict, ns.Time, ns.Node, ns.Packets[prev].ID, p.ID, dir)
		}
		sc.dirOwner[dir] = i
	}
	return validateGreedy(ns, out, sc.dirOwner, e.opts.Validation)
}

// validateGreedy checks the greediness condition of Definition 6 and (at
// ValidateRestricted) the restricted-preference condition of Definition 18
// for one node's assignment. dirOwner must map each direction to the index
// of the packet using it (-1 when free). Shared by the engine's validate and
// the sharded path's NodeRouter so the two enforce identical semantics.
func validateGreedy(ns *NodeState, out []mesh.Dir, dirOwner []int, level ValidationLevel) error {
	if level < ValidateGreedy {
		return nil
	}
	for i, dir := range out {
		pi := ns.Info(i)
		if goodContains(pi, dir) {
			continue // advancing
		}
		// Packet i is deflected: every (surviving) good arc must carry an
		// advancing packet (Definition 6), and if packet i is restricted,
		// that advancing packet must itself be restricted (Definition 18).
		for _, g := range pi.Good() {
			j := dirOwner[g]
			if j < 0 || !goodContains(ns.Info(j), g) {
				return fmt.Errorf("%w: step %d node %d packet %d deflected with free good arc %v",
					ErrNotGreedy, ns.Time, ns.Node, ns.Packets[i].ID, g)
			}
			if level >= ValidateRestricted && pi.Restricted && !ns.Info(j).Restricted {
				return fmt.Errorf("%w: step %d node %d packet %d deflected by non-restricted packet %d",
					ErrNotRestrictedPreferring, ns.Time, ns.Node, ns.Packets[i].ID, ns.Packets[j].ID)
			}
		}
	}
	return nil
}

// routeNode routes one node's packets, writing exactly len(dst) ==
// len(byNode[node]) moves into dst (the node's segment of the engine's move
// buffer) using the given RNG.
func (e *Engine) routeNode(sc *routeScratch, node mesh.NodeID, t int, rnd *rand.Rand, dst []Move) error {
	pkts := e.byNode[node]
	if len(pkts) > sc.maxNodeLoad {
		sc.maxNodeLoad = len(pkts)
	}
	sc.ns.Node = node
	sc.ns.Time = t
	sc.ns.Packets = pkts
	sc.fillInfo(e.topo, e.fast)

	sc.out = sc.out[:len(pkts)]
	for i := range sc.out {
		sc.out[i] = mesh.NoDir
	}
	if err := sc.routePolicy(rnd); err != nil {
		return fmt.Errorf("step %d node %d: %w", t, node, err)
	}

	if e.opts.Validation > ValidateOff {
		if err := e.validate(sc); err != nil {
			return err
		}
	}
	fast := e.fast
	dirCount := e.mesh.DirCount()
	for i, p := range pkts {
		dir := sc.out[i]
		var to mesh.NodeID
		ok := dir >= 0 && int(dir) < dirCount
		if ok {
			if fast != nil {
				to, ok = fast.Neighbor(node, dir)
			} else {
				to, ok = e.topo.Neighbor(node, dir)
			}
		}
		if !ok {
			// Unvalidated policies can still not corrupt the engine (nor
			// route through an arc the failure set removed).
			return fmt.Errorf("%w: step %d node %d packet %d via %v", ErrOffMesh, t, node, p.ID, dir)
		}
		pi := sc.ns.Info(i)
		adv := goodContains(pi, dir)
		dst[i] = Move{
			Packet:        p,
			From:          node,
			To:            to,
			Dir:           dir,
			Advanced:      adv,
			GoodCount:     pi.GoodCount,
			WasRestricted: pi.Restricted,
			WasTypeA:      pi.TypeA,
			ArrivedNow:    to == p.Dst,
		}
	}
	return nil
}

// routeParallel routes the active nodes on the persistent worker pool.
// Workers claim chunks of the (sorted) active list from a shared atomic
// cursor, so a heavy node no longer serializes a static partition; each
// node's moves land in its precomputed segment of e.moves, which keeps the
// per-node grouping and global node order the observers and the move
// application rely on. Each node's tie-break RNG is derived from
// (seed, step, node), making the outcome independent of the partition and
// of the worker count.
func (e *Engine) routeParallel(t int) error {
	n := len(e.active)
	if cap(e.moveOff) < n+1 {
		e.moveOff = make([]int, n+1)
	}
	e.moveOff = e.moveOff[:n+1]
	total := 0
	for i, node := range e.active {
		e.moveOff[i] = total
		total += len(e.byNode[node])
	}
	e.moveOff[n] = total
	if cap(e.moves) < total {
		e.moves = make([]Move, total)
	}
	e.moves = e.moves[:total]
	for _, sc := range e.workers {
		sc.reroutes = 0
	}
	if err := e.pool.route(e, t); err != nil {
		return err
	}
	for _, sc := range e.workers {
		if sc.maxNodeLoad > e.maxNodeLoad {
			e.maxNodeLoad = sc.maxNodeLoad
		}
		e.reroutes += sc.reroutes
	}
	return nil
}

// Step advances the simulation by one synchronous step. It returns an error
// only on validation failure; termination conditions (done, livelock, step
// budget) are reported by Run.
func (e *Engine) Step() error {
	t := e.time
	// Fault transitions happen first (single-threaded, own RNG stream), so
	// injection and routing always see a settled failure set and the fault
	// sequence is identical on the serial and parallel paths.
	if e.faults != nil {
		e.applyFaults()
	}
	if e.injector != nil {
		if err := e.inject(); err != nil {
			return err
		}
	}
	// Route every active node. Active nodes are kept sorted so that runs
	// are reproducible for a given seed.
	if len(e.workers) > 0 && len(e.active) > 1 {
		if err := e.routeParallel(t); err != nil {
			return err
		}
	} else {
		// Every live packet sits in exactly one active node's queue, so the
		// step produces exactly e.live moves; the buffer is reused across
		// steps and only reallocated when injection outgrows it.
		total := e.live
		if cap(e.moves) < total {
			e.moves = make([]Move, total)
		}
		e.moves = e.moves[:total]
		sc := e.scratch
		sc.reroutes = 0
		base := 0
		for _, node := range e.active {
			n := len(e.byNode[node])
			// A parallel engine that falls through here (one active node)
			// must still draw from the per-(seed, step, node) stream, so
			// that Workers > 1 means per-node streams always — the property
			// the sharded engine's parity contract is built on.
			rnd := e.rng
			if len(e.workers) > 0 {
				sc.src.Seed(NodeSeed(e.opts.Seed, t, node))
				rnd = sc.rnd
			}
			if err := e.routeNode(sc, node, t, rnd, e.moves[base:base+n]); err != nil {
				return err
			}
			base += n
		}
		if sc.maxNodeLoad > e.maxNodeLoad {
			e.maxNodeLoad = sc.maxNodeLoad
		}
		e.reroutes += sc.reroutes
	}

	// Apply all moves simultaneously.
	for _, node := range e.active {
		e.byNode[node] = e.byNode[node][:0]
		e.activeMark[node] = false
	}
	e.active = e.active[:0]
	e.time = t + 1
	for i := range e.moves {
		mv := &e.moves[i]
		p := mv.Packet
		p.GoodPrev = mv.GoodCount
		p.RestrictedPrev = mv.WasRestricted
		p.AdvancedPrev = mv.Advanced
		p.Node = mv.To
		p.EnteredVia = mv.Dir
		p.Hops++
		e.totalHops++
		if !mv.Advanced {
			p.Deflections++
			e.totalDeflections++
		}
		if mv.ArrivedNow {
			p.ArrivedAt = e.time
			e.lastArrival = e.time
			e.live--
			delete(e.ids, p.ID) // finalized; the nextID watermark covers it
		} else {
			e.enqueue(p)
		}
	}
	e.sortActive()

	if e.conflictObs != nil {
		e.emitConflicts(t)
	}

	if len(e.observers) > 0 {
		rec := StepRecord{Time: t, Moves: e.moves}
		for _, o := range e.observers {
			o.OnStep(&rec)
		}
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

// mix64 folds v into the running hash h with the SplitMix64 finalizer, a
// full-avalanche bijection: one multiply-xorshift round per word instead of
// the old byte-at-a-time FNV writes.
func mix64(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// stateHash digests the full routing-relevant configuration: for each live
// packet its identity, position, entry arc and history flags, visited in
// queue order over the (sorted) active nodes. Two equal configurations under
// a deterministic policy evolve identically, so a repeated hash marks a
// livelock (up to the negligible 64-bit collision probability, documented in
// the Options). Only the live packets are walked — finalized ones can never
// differ between two occurrences of the same live configuration, because a
// deterministic run never resurrects them — so the per-step cost tracks the
// packets in flight, not the total ever injected.
func (e *Engine) stateHash() uint64 {
	h := ConfigHashSeed
	for _, node := range e.active {
		for _, p := range e.byNode[node] {
			h = ConfigHashPacket(h, p)
		}
	}
	return h
}

// Runnable reports whether the run has work left: packets in flight or an
// injector still producing, no livelock, and step budget remaining.
func (e *Engine) Runnable() bool {
	return (e.live > 0 || (e.injector != nil && !e.injector.Exhausted(e.time))) &&
		!e.livelock && e.time < e.opts.MaxSteps
}

// Run steps the engine until every packet arrives (or is removed by fault
// degradation), a livelock is detected, or the step budget is exhausted,
// and returns the summary.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run under ctx, with Drive's stop contract: a deadline sets
// Result.DeadlineExceeded with a nil error, cancellation returns the
// partial summary alongside ctx.Err(), and the engine stays valid either
// way (callers may Snapshot it or resume stepping).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	return Drive(ctx, e, DriveOptions{})
}

// Result summarizes the run so far.
func (e *Engine) Result() *Result {
	r := &Result{
		Steps:            e.lastArrival,
		Delivered:        len(e.packets) - e.live - e.dropped - e.absorbed,
		Total:            len(e.packets),
		Livelocked:       e.livelock,
		HitMaxSteps:      e.live > 0 && !e.livelock && e.time >= e.opts.MaxSteps,
		TotalDeflections: e.totalDeflections,
		TotalHops:        e.totalHops,
		MaxNodeLoad:      e.maxNodeLoad,

		Dropped:            e.dropped,
		Absorbed:           e.absorbed,
		DroppedCrash:       e.dropCrash,
		DroppedUnreachable: e.dropUnreachable,
		DroppedStranded:    e.dropStranded,
		DroppedInject:      e.dropInject,
		Reroutes:           e.reroutes,
	}
	if e.overlay != nil {
		r.LinkFailures = e.overlay.LinkFailures()
		r.NodeFailures = e.overlay.NodeFailures()
	}
	return r
}
