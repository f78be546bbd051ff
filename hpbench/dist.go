package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

// distParams sizes dist-fullload-256: perNode packets at every node of a
// side x side torus, policy fixed at ValidateGreedy, run by a dshard
// coordinator over in-process workers on loopback TCP — the daemon's
// default distributed mode.
type distParams struct {
	side, perNode int
	grid          shard.Grid
	workers       int
	setupReps     int
}

var fullDist = distParams{side: 256, perNode: 2, grid: shard.Grid{P: 2, Q: 1}, workers: 2, setupReps: 6}

const distToken = "hpbench"

// spec leaves livelock detection off, as BenchmarkDistributedFullLoad does:
// with it, every step also gathers the workers' state hashes.
func (p distParams) spec(seed int64) dshard.Spec {
	return dshard.Spec{
		Side: p.side, Wrap: true, Policy: "fixed", Grid: p.grid,
		Seed: seed, Validation: sim.ValidateGreedy,
	}
}

// distWorker is what one traced worker recorded.
type distWorker struct {
	conn     connStats
	policies policySet

	// Step-span state, touched only by the worker's protocol goroutine.
	stepStart time.Time
	step      int
	last      span
}

// distTrace collects the traced workers of one run.
type distTrace struct {
	tr      *tracer
	trace   int64
	parent  int64
	mu      sync.Mutex
	workers []*distWorker
}

func (dt *distTrace) newWorker() *distWorker {
	w := &distWorker{step: -1}
	dt.mu.Lock()
	dt.workers = append(dt.workers, w)
	dt.mu.Unlock()
	return w
}

// onStep closes the worker's span of the previous step when the next one
// begins; the run's final step has no successor and is covered by the
// run span alone.
func (dt *distTrace) onStep(w *distWorker, slot, t int) {
	now := time.Now()
	route := w.policies.total()
	cur := span{
		RouteNS: route.ns, RouteCalls: route.calls,
		ReadNS: w.conn.readNS.Load(), WriteNS: w.conn.writeNS.Load(),
		Bytes:  w.conn.bytesIn.Load() + w.conn.bytesOut.Load(),
		Frames: w.conn.framesIn.Load() + w.conn.framesOut.Load(),
	}
	if w.step >= 0 {
		dt.tr.add(span{
			Trace: dt.trace, Parent: dt.parent, Name: "dshard.worker.step", Step: w.step, Worker: slot,
			RouteNS: cur.RouteNS - w.last.RouteNS, RouteCalls: cur.RouteCalls - w.last.RouteCalls,
			ReadNS: cur.ReadNS - w.last.ReadNS, WriteNS: cur.WriteNS - w.last.WriteNS,
			Bytes: cur.Bytes - w.last.Bytes, Frames: cur.Frames - w.last.Frames,
		}, w.stepStart, now)
	}
	w.stepStart, w.step, w.last = now, t, cur
}

type procFunc func()

func (f procFunc) Stop() { f() }

// tracedSpawner starts each worker as a goroutine that dials the
// coordinator and serves it through dshard.ServeWorker, like
// dshard.InProcessSpawner, but over a timed connection and with wrapped
// policies.
func (dt *distTrace) spawner(base dshard.WorkerOptions) func(slot int, addr string) (dshard.WorkerProc, error) {
	return func(slot int, addr string) (dshard.WorkerProc, error) {
		w := dt.newWorker()
		opts := base
		opts.Slot = slot
		opts.Policies = func(name string) (sim.Policy, error) {
			pol, err := spec.NewPolicy(name)
			if err != nil {
				return nil, err
			}
			return w.policies.wrap(pol), nil
		}
		hook := base.TestHookPreRoute
		opts.TestHookPreRoute = func(t int) {
			hook(t)
			dt.onStep(w, slot, t)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := dialRetry(ctx, addr)
			if err != nil {
				return
			}
			defer conn.Close()
			start := time.Now()
			dshard.ServeWorker(ctx, &tracedConn{Conn: conn, st: &w.conn}, opts) //nolint:errcheck // the coordinator sees a failed worker as a failed barrier
			w.conn.wallNS.Add(int64(time.Since(start)))
		}()
		return procFunc(func() { cancel(); <-done }), nil
	}
}

func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		conn, err := dshard.Dial(addr)
		if err == nil || attempt == 20 {
			return conn, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// distOutcome is what one distributed instance produced.
type distOutcome struct {
	res        *sim.Result
	recoveries int
	steps      int
	newDur     time.Duration // inside dshard.New
	setup      time.Duration // dshard.New until the first ROUTE reaches a worker
}

// once runs one distributed instance: spawn, handshake and load the
// workers, then route. stopAfterSetup cancels the run as the first step
// begins (a set-up repetition); atSetupEnd, when non-nil, runs at that
// moment, before any packet moves.
func (p distParams) once(seed int64, pkts []*sim.Packet, dt *distTrace, stopAfterSetup bool, atSetupEnd func()) (*distOutcome, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstRoute atomic.Int64
	var hookOnce sync.Once
	start := time.Now()
	hook := func(int) {
		hookOnce.Do(func() {
			firstRoute.Store(int64(time.Since(start)))
			if atSetupEnd != nil {
				atSetupEnd()
			}
			if stopAfterSetup {
				cancel()
			}
		})
	}
	base := dshard.WorkerOptions{Token: distToken, Policies: spec.NewPolicy, TestHookPreRoute: hook}
	spawn := dshard.InProcessSpawner(base)
	if dt != nil {
		spawn = dt.spawner(base)
	}
	c, err := dshard.New(p.spec(seed), pkts, dshard.Options{
		Workers: p.workers, Token: distToken, Policies: spec.NewPolicy, Spawn: spawn,
	})
	if err != nil {
		return nil, err
	}
	newDur := time.Since(start)
	res, runErr := c.Run(ctx)
	c.Close()
	if runErr != nil && !(stopAfterSetup && errors.Is(runErr, context.Canceled)) {
		return nil, fmt.Errorf("dshard run: %w", runErr)
	}
	setup := time.Duration(firstRoute.Load())
	if setup == 0 {
		return nil, errors.New("dshard run never reached its first step")
	}
	return &distOutcome{res: res, recoveries: c.Recoveries(), steps: c.Time(), newDur: newDur, setup: setup}, nil
}

// measureDist runs distributed instances for cfg.budget. One operation is
// one instance: generate the packets, build the coordinator, spawn and
// load the workers, route to completion and check the result.
func measureDist(p distParams, cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
	s := &sample{}
	var meshMS, genUS, newUS []float64
	var m *mesh.Mesh
	for r := 0; r < 3; r++ {
		start := time.Now()
		mm, err := mesh.NewTorus(2, p.side)
		if err != nil {
			return nil, err
		}
		mm.Tables()
		meshMS = append(meshMS, ms(time.Since(start)))
		m = mm
	}
	gen := func(seed int64) ([]*sim.Packet, error) {
		start := time.Now()
		pkts, err := workload.FullLoad(m, p.perNode, rand.New(rand.NewSource(seed)))
		genUS = append(genUS, us(time.Since(start)))
		return pkts, err
	}

	probes := startProbeLoop(probeInterval)
	defer probes.finish()
	var setups []timedOp

	// Set-up repetitions, each cancelled as its first step begins; the last
	// one also takes the heap at the peak in-flight population (all packets
	// loaded, none delivered).
	for r := 0; r < p.setupReps; r++ {
		pkts, err := gen(rng.Mix(cfg.seed, -1))
		if err != nil {
			return nil, err
		}
		var heapProbe func()
		if r == p.setupReps-1 {
			heapProbe = func() { s.heapMB = liveHeapMB() }
		}
		t0 := time.Now()
		out, err := p.once(rng.Mix(cfg.seed, -1), pkts, nil, true, heapProbe)
		if err != nil {
			return nil, err
		}
		setups = append(setups, timedOp{start: t0, end: t0.Add(out.setup)})
	}

	var busyNS, wallNS, readNS, writeNS, routeNS, routeCalls, wire, frames, steps, hops, allocs int64
	var firstCalls int64
	recoveries := 0
	var timed []timedOp
	op := func(i int) error {
		sub := rng.Mix(cfg.seed, int64(i))
		start := time.Now()
		pkts, err := gen(sub)
		if err != nil {
			return err
		}
		var dt *distTrace
		if traced {
			dt = &distTrace{tr: tr, trace: int64(i), parent: tr.reserve()}
		}
		allocs0 := heapAllocBytes()
		t0 := time.Now()
		out, err := p.once(sub, pkts, dt, false, nil)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		res := out.res
		var c checks
		c.expect("result-complete", res.Delivered == len(pkts) && res.Total == len(pkts))
		c.expect("run-completed", !res.HitMaxSteps && !res.Livelocked && !res.DeadlineExceeded)
		c.expect("no-recoveries", out.recoveries == 0)
		rep.record(c)
		end := time.Now()

		setups = append(setups, timedOp{start: t0, end: t0.Add(out.setup)})
		timed = append(timed, timedOp{start, end, res.TotalHops})
		if i == 0 {
			s.digest = digest{Steps: int64(res.Steps), Hops: res.TotalHops, Deflections: res.TotalDeflections}
		}
		if traced {
			allocs += heapAllocBytes() - allocs0
			newUS = append(newUS, us(out.newDur))
			hops += res.TotalHops
			steps += int64(out.steps)
			recoveries += out.recoveries
			var calls int64
			for _, w := range dt.workers {
				wall := w.conn.wallNS.Load()
				rd, wr := w.conn.readNS.Load(), w.conn.writeNS.Load()
				route := w.policies.total()
				wallNS += wall
				readNS += rd
				writeNS += wr
				busyNS += wall - rd - wr
				routeNS += route.ns
				calls += route.calls
				wire += w.conn.bytesIn.Load() + w.conn.bytesOut.Load()
				frames += w.conn.framesIn.Load() + w.conn.framesOut.Load()
			}
			routeCalls += calls
			if i == 0 {
				firstCalls = calls
			}
			tr.addAs(dt.parent, span{Trace: int64(i), Name: "instance"}, start, end)
		}
		return nil
	}
	if err := timedLoop(cfg.budget, 1, op); err != nil {
		return nil, err
	}
	probes.finish()
	for _, o := range setups {
		s.setupS = append(s.setupS, o.scaled(probes).Seconds())
	}
	for _, o := range timed {
		d := o.scaled(probes)
		s.addOp(d, o.end.Sub(o.start), o.hops)
		s.addJob(d)
	}
	s.probeUS = probes.micros()
	if traced {
		wallF := float64(max(wallNS, 1))
		s.layer = map[string]float64{
			"mesh.build_ms":              median(meshMS),
			"workload.gen_us_p50":        median(genUS),
			"sim.new_us_p50":             median(newUS),
			"sim.self_ns_per_hop":        float64(busyNS-routeNS) / float64(max(hops, 1)),
			"sim.self_frac":              float64(busyNS-routeNS) / wallF,
			"sim.alloc_bytes_per_hop":    float64(allocs) / float64(max(hops, 1)),
			"routing.calls":              float64(firstCalls),
			"routing.ns_per_call":        float64(routeNS) / float64(max(routeCalls, 1)),
			"routing.frac":               float64(routeNS) / wallF,
			"shard.worker_busy_frac":     float64(busyNS) / wallF,
			"dshard.wire_bytes_per_step": float64(wire) / float64(max(steps, 1)),
			"dshard.frames_per_step":     float64(frames) / float64(max(steps, 1)),
			"dshard.read_wait_frac":      float64(readNS) / wallF,
			"dshard.write_frac":          float64(writeNS) / wallF,
			"dshard.recoveries":          float64(recoveries),
		}
	}
	return s, nil
}
