package main

import (
	"runtime/metrics"
	"time"

	"hotpotato/internal/sim"
)

// engineTrace sums what a traced single-engine run spent at each seam.
type engineTrace struct {
	steps                       int64
	stepNS                      int64 // inside Engine.Step
	route, inject, observe      busy  // inside Policy.Route, Injector.Inject, Observer.OnStep
	allocBytes                  int64 // heap bytes allocated while stepping
	hops                        int64
	genUS, newUS, meshMS        []float64
	firstRouteCalls             int64 // Route calls of the run's first instance
	firstInjected, firstBacklog int
}

// seams are the wrappers installed on one traced engine.
type seams struct {
	policies *policySet
	injector *tracedInjector // nil without an injector
	observer *tracedObserver // nil without an observer
}

func (s *seams) totals() (route, inject, observe busy) {
	route = s.policies.total()
	if s.injector != nil {
		inject = s.injector.acc
	}
	if s.observer != nil {
		observe = s.observer.acc
	}
	return
}

// runnable reports whether Run would take another step of e. inj is the
// injector installed on e, or nil.
func runnable(e *sim.Engine, inj sim.Injector) bool {
	return (e.Live() > 0 || (inj != nil && !inj.Exhausted(e.Time()))) && !e.Livelocked() && e.Time() < sim.DefaultMaxSteps
}

// stepProbed drives e with Step for as long as Run would, ending a segment
// of clk every probeEvery steps, then returns Run's summary (Run returns it
// at once, with nothing left to do).
func stepProbed(e *sim.Engine, inj sim.Injector, clk *scaledClock) (*sim.Result, error) {
	for runnable(e, inj) {
		if err := e.Step(); err != nil {
			return nil, err
		}
		if e.Time()%probeEvery == 0 {
			clk.lap()
		}
	}
	return e.Run()
}

// stepTraced is stepProbed recording one span per step. clk is nil when
// the caller probes only between instances.
func stepTraced(e *sim.Engine, inj sim.Injector, sm *seams, et *engineTrace, tr *tracer, trace, parent int64, clk *scaledClock) (*sim.Result, error) {
	allocs0 := heapAllocBytes()
	for runnable(e, inj) {
		r0, i0, o0 := sm.totals()
		t := e.Time()
		start := time.Now()
		if err := e.Step(); err != nil {
			return nil, err
		}
		end := time.Now()
		r1, i1, o1 := sm.totals()
		et.steps++
		et.stepNS += int64(end.Sub(start))
		et.route.ns += r1.ns - r0.ns
		et.route.calls += r1.calls - r0.calls
		et.inject.ns += i1.ns - i0.ns
		et.inject.calls += i1.calls - i0.calls
		et.observe.ns += o1.ns - o0.ns
		et.observe.calls += o1.calls - o0.calls
		tr.add(span{
			Parent: parent, Trace: trace, Name: "sim.Engine.Step", Step: t,
			RouteNS: r1.ns - r0.ns, RouteCalls: r1.calls - r0.calls,
			InjectNS: i1.ns - i0.ns, ObserveNS: o1.ns - o0.ns,
		}, start, end)
		if clk != nil && e.Time()%probeEvery == 0 {
			clk.lap()
		}
	}
	et.allocBytes += heapAllocBytes() - allocs0
	return e.Run()
}

// layers turns the sums into the per-layer metrics of a single-engine
// workload.
func (et *engineTrace) layers() map[string]float64 {
	self := et.stepNS - et.route.ns - et.inject.ns - et.observe.ns
	frac := func(ns int64) float64 { return float64(ns) / float64(max(et.stepNS, 1)) }
	perStep := func(ns int64) float64 { return float64(ns) / float64(max(et.steps, 1)) }
	l := map[string]float64{
		"mesh.build_ms":           median(et.meshMS),
		"workload.gen_us_p50":     median(et.genUS),
		"sim.new_us_p50":          median(et.newUS),
		"sim.self_ns_per_hop":     float64(self) / float64(max(et.hops, 1)),
		"sim.self_frac":           frac(self),
		"sim.alloc_bytes_per_hop": float64(et.allocBytes) / float64(max(et.hops, 1)),
		"routing.calls":           float64(et.firstRouteCalls),
		"routing.ns_per_call":     float64(et.route.ns) / float64(max(et.route.calls, 1)),
		"routing.frac":            frac(et.route.ns),
	}
	if et.observe.calls > 0 {
		l["core.ns_per_step"] = perStep(et.observe.ns)
		l["core.frac"] = frac(et.observe.ns)
	}
	if et.inject.calls > 0 {
		l["traffic.ns_per_step"] = perStep(et.inject.ns)
		l["traffic.frac"] = frac(et.inject.ns)
		l["traffic.injected"] = float64(et.firstInjected)
		l["traffic.backlog_max"] = float64(et.firstBacklog)
	}
	return l
}

// heapAllocBytes is the cumulative count of heap bytes allocated by the
// process, read without stopping the world.
func heapAllocBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
