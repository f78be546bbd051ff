package main

import (
	"fmt"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/traffic"
)

// poissonParams sizes poisson-512: an open system on a side x side mesh fed
// by per-node Poisson arrivals at rate for window steps, then drained;
// restricted at ValidateRestricted, no tracker.
type poissonParams struct {
	side      int
	rate      string
	window    int
	setupReps int
}

var fullPoisson = poissonParams{side: 512, rate: "0.0001", window: 400, setupReps: 9}

// poissonRun is one built, not yet stepped, open-system run.
type poissonRun struct {
	src    *traffic.Source
	e      *sim.Engine
	meshMS float64
	genUS  float64
	newUS  float64
}

// build sets up one run: the mesh and its tables, the arrival source and
// the engine. Everything here happens before the first step.
func (p poissonParams) build(seed int64, wrap func(sim.Policy) sim.Policy) (*poissonRun, error) {
	start := time.Now()
	m, err := mesh.New(2, p.side)
	if err != nil {
		return nil, err
	}
	m.Tables()
	meshEnd := time.Now()
	as, err := spec.ParseArrivalSpec(fmt.Sprintf("poisson:rate=%s,until=%d", p.rate, p.window))
	if err != nil {
		return nil, err
	}
	src, err := spec.BuildArrivals(as, m)
	if err != nil {
		return nil, err
	}
	genEnd := time.Now()
	pol, err := spec.NewPolicy("restricted")
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		pol = wrap(pol)
	}
	e, err := sim.New(m, pol, nil, sim.Options{Seed: seed, Validation: sim.ValidateRestricted})
	if err != nil {
		return nil, err
	}
	newEnd := time.Now()
	return &poissonRun{src: src, e: e,
		meshMS: ms(meshEnd.Sub(start)), genUS: us(genEnd.Sub(meshEnd)), newUS: us(newEnd.Sub(genEnd))}, nil
}

// measurePoisson runs open-system instances for cfg.budget. One operation
// is one run: set up, inject for the window, drain, and check that every
// generated packet was injected and delivered. Runs happen on the calling
// goroutine and are timed by its thread's CPU clock, scaled by the speed
// probe after the set-up and every probeEvery steps.
func measurePoisson(p poissonParams, cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
	s := &sample{}
	et := &engineTrace{}
	defer lockThread()()
	probe := newSpeedProbe()
	for r := 0; r < p.setupReps; r++ {
		clk := s.startClock(probe)
		run, err := p.build(rng.Mix(cfg.seed, -1), nil)
		if err != nil {
			return nil, err
		}
		run.e.SetInjector(run.src)
		clk.lap()
		s.setupS = append(s.setupS, clk.scaled.Seconds())
		et.meshMS = append(et.meshMS, run.meshMS)
		run.e.Close()
	}

	// Heap at the end of the generation window, where the in-flight
	// population peaks.
	{
		run, err := p.build(rng.Mix(cfg.seed, -1), nil)
		if err != nil {
			return nil, err
		}
		run.e.SetInjector(run.src)
		for run.e.Time() < p.window {
			if err := run.e.Step(); err != nil {
				return nil, err
			}
		}
		s.heapMB = liveHeapMB()
		run.e.Close()
	}

	op := func(i int) error {
		sub := rng.Mix(cfg.seed, int64(i))
		var parent int64
		if traced {
			parent = tr.reserve()
		}
		start, clk := time.Now(), s.startClock(probe)
		sm := &seams{policies: &policySet{}}
		var wrap func(sim.Policy) sim.Policy
		if traced {
			wrap = sm.policies.wrap
		}
		run, err := p.build(sub, wrap)
		if err != nil {
			return err
		}
		defer run.e.Close()
		var inj sim.Injector = run.src
		if traced {
			sm.injector = &tracedInjector{inner: run.src}
			inj = sm.injector
		}
		run.e.SetInjector(inj)
		built := time.Now()
		clk.lap()
		var res *sim.Result
		if traced {
			res, err = stepTraced(run.e, inj, sm, et, tr, int64(i), parent, clk)
		} else {
			res, err = stepProbed(run.e, inj, clk)
		}
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		src := run.src
		var c checks
		c.expect("all-generated-injected", src.Generated() == src.Injected() && src.Backlog() == 0)
		c.expect("delivered-equals-injected", res.Delivered == src.Injected() && res.Total == src.Injected())
		c.expect("nothing-dropped", res.Dropped == 0)
		c.expect("run-completed", !res.HitMaxSteps && !res.Livelocked && !res.DeadlineExceeded)
		rep.record(c)
		end := time.Now()
		clk.lap()

		s.addOp(clk.scaled, clk.raw, res.TotalHops)
		s.addJob(clk.scaled)
		if i == 0 {
			var lat []int
			for _, pk := range run.e.Packets() {
				if l := src.Latency(pk); l >= 0 {
					lat = append(lat, l)
				}
			}
			s.digest = digest{
				Steps: int64(res.Steps), Hops: res.TotalHops, Deflections: res.TotalDeflections,
				LatencyP50: rankPercentile(lat, 0.5), LatencyP99: rankPercentile(lat, 0.99),
			}
		}
		if traced {
			et.hops += res.TotalHops
			et.genUS = append(et.genUS, run.genUS)
			et.newUS = append(et.newUS, run.newUS)
			if i == 0 {
				et.firstRouteCalls = sm.policies.total().calls
				et.firstInjected, et.firstBacklog = src.Injected(), src.MaxBacklog()
			}
			tr.add(span{Trace: int64(i), Parent: parent, Name: "setup"}, start, built)
			tr.addAs(parent, span{Trace: int64(i), Name: "run"}, start, end)
		}
		return nil
	}
	if err := timedLoop(cfg.budget, 1, op); err != nil {
		return nil, err
	}
	if traced {
		s.layer = et.layers()
	}
	return s, nil
}
