package main

import (
	"fmt"
	"math/rand"
	"time"

	"hotpotato/internal/analysis"
	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

// batchParams sizes batch-perm-64: independent full-permutation instances
// (k = side^2) on a side x side mesh, routed by restricted at
// ValidateRestricted with a core.Tracker attached. A job is a sweep cell of
// cell consecutive instances: what a user of cmd/sweep waits for, and long
// enough that one preempted instance does not decide the job tail.
type batchParams struct {
	side      int
	setupReps int
	minOps    int
	cell      int
}

var fullBatch = batchParams{side: 64, setupReps: 50, minOps: 100, cell: 10}

// measureBatch runs batch instances for cfg.budget. One operation is one
// instance: generate the permutation, build the engine and tracker, route
// to completion, and check delivery, the Tracker and Theorem 20's bound.
// Every instance runs on the calling goroutine, so set-up and instances are
// timed by its thread's CPU clock, scaled by the speed probe.
func measureBatch(p batchParams, cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
	s := &sample{}
	et := &engineTrace{}
	defer lockThread()()
	probe := newSpeedProbe()

	// Set-up: the mesh and its flat tables, built once per run and shared
	// by every instance.
	var m *mesh.Mesh
	for r := 0; r < p.setupReps; r++ {
		clk := s.startClock(probe)
		mm, err := mesh.New(2, p.side)
		if err != nil {
			return nil, err
		}
		mm.Tables()
		clk.lap()
		s.setupS = append(s.setupS, clk.scaled.Seconds())
		et.meshMS = append(et.meshMS, ms(clk.raw))
		m = mm
	}
	bound := analysis.Theorem20Bound(p.side, m.Size())

	// Heap at the peak in-flight population: an instance's engine and
	// tracker just built, every packet still in flight.
	{
		pkts := workload.Permutation(m, rand.New(rand.NewSource(rng.Mix(cfg.seed, -1))))
		pol, err := spec.NewPolicy("restricted")
		if err != nil {
			return nil, err
		}
		e, err := sim.New(m, pol, pkts, sim.Options{Seed: 1, Validation: sim.ValidateRestricted})
		if err != nil {
			return nil, err
		}
		e.AddObserver(core.NewTracker(m, pkts, core.TrackerOptions{}))
		s.heapMB = liveHeapMB()
		e.Close()
	}

	var cellTime time.Duration
	op := func(i int) error {
		sub := rng.Mix(cfg.seed, int64(i))
		var parent int64
		if traced {
			parent = tr.reserve()
		}
		start, clk := time.Now(), s.startClock(probe)
		pkts := workload.Permutation(m, rand.New(rand.NewSource(sub)))
		genEnd := time.Now()
		pol, err := spec.NewPolicy("restricted")
		if err != nil {
			return err
		}
		sm := &seams{policies: &policySet{}}
		if traced {
			pol = sm.policies.wrap(pol)
		}
		e, err := sim.New(m, pol, pkts, sim.Options{Seed: sub + 1, Validation: sim.ValidateRestricted})
		if err != nil {
			return err
		}
		defer e.Close()
		newEnd := time.Now()
		trk := core.NewTracker(m, pkts, core.TrackerOptions{})
		var res *sim.Result
		if traced {
			sm.observer = &tracedObserver{inner: trk}
			e.AddObserver(sm.observer)
			res, err = stepTraced(e, nil, sm, et, tr, int64(i), parent, nil)
		} else {
			e.AddObserver(trk)
			res, err = e.Run()
		}
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		var c checks
		c.expect("all-delivered", res.Delivered == len(pkts) && res.Total == len(pkts))
		c.expect("tracker-clean", !trk.Violations().Any())
		c.expect("theorem20-bound", float64(res.Steps) <= bound)
		rep.record(c)
		end := time.Now()
		clk.lap()

		s.addOp(clk.scaled, clk.raw, res.TotalHops)
		cellTime += clk.scaled
		if (i+1)%p.cell == 0 {
			s.addJob(cellTime)
			cellTime = 0
		}
		if i == 0 {
			lat := make([]int, 0, len(pkts))
			for _, pk := range pkts {
				lat = append(lat, pk.ArrivedAt)
			}
			s.digest = digest{
				Steps: int64(res.Steps), Hops: res.TotalHops, Deflections: res.TotalDeflections,
				LatencyP50: rankPercentile(lat, 0.5), LatencyP99: rankPercentile(lat, 0.99),
			}
		}
		if traced {
			et.hops += res.TotalHops
			et.genUS = append(et.genUS, us(genEnd.Sub(start)))
			et.newUS = append(et.newUS, us(newEnd.Sub(genEnd)))
			if i == 0 {
				et.firstRouteCalls = sm.policies.total().calls
			}
			tr.add(span{Trace: int64(i), Parent: parent, Name: "workload.Permutation"}, start, genEnd)
			tr.add(span{Trace: int64(i), Parent: parent, Name: "sim.New"}, genEnd, newEnd)
			tr.addAs(parent, span{Trace: int64(i), Name: "instance"}, start, end)
		}
		return nil
	}
	if err := timedLoop(cfg.budget, p.minOps, op); err != nil {
		return nil, err
	}
	if traced {
		s.layer = et.layers()
	}
	return s, nil
}
