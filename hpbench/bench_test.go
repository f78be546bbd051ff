package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/traffic"
	"hotpotato/internal/workload"
)

// Reduced sizes: the same code paths as the benchmark's workloads, small
// enough for a unit test.
var (
	smallBatch   = batchParams{side: 16, setupReps: 2, minOps: 4, cell: 2}
	smallPoisson = poissonParams{side: 48, rate: "0.002", window: 40, setupReps: 1}
	smallDist    = distParams{side: 32, perNode: 2, grid: shard.Grid{P: 2, Q: 1}, workers: 2, setupReps: 1}
	smallService = serviceParams{
		clients: 2, setupReps: 1, checkpointEvery: 8,
		kinds: []jobKind{
			{"sim", 32, `"side":8,"k":32`},
			{"shard", 64, `"side":8,"torus":true,"k":64,"shards":"2x1"`},
			{"dshard", 64, `"side":8,"torus":true,"k":64,"shards":"2x1","dist_workers":2`},
		},
	}
)

type measureFunc func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error)

var smallWorkloads = map[string]measureFunc{
	"batch-perm-64": func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureBatch(smallBatch, cfg, traced, tr, rep)
	},
	"poisson-512": func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measurePoisson(smallPoisson, cfg, traced, tr, rep)
	},
	"dist-fullload-256": func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureDist(smallDist, cfg, traced, tr, rep)
	},
	"service-mix": func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureService(smallService, cfg, traced, tr, rep)
	},
}

// TestTracedDigestEqualsUntraced runs every workload at reduced size with
// and without tracing: the wrappers must not change what is simulated, and
// every check must pass.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		measure := smallWorkloads[w.name]
		if measure == nil {
			t.Fatalf("workload %s has no reduced-size variant", w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, budget: 300 * time.Millisecond, outDir: t.TempDir()}
			rep := &report{}
			plain, err := measure(cfg, false, nil, rep)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := measure(cfg, true, tr, rep)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %+v, untraced %+v", traced.digest, plain.digest)
			}
			if plain.digest.Hops == 0 || plain.digest.Steps == 0 {
				t.Fatalf("empty digest %+v", plain.digest)
			}
			if len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for _, d := range endToEnd {
				if v := plain.endToEnd()[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			for name := range traced.layer {
				if !knownLayerMetric(name) {
					t.Errorf("layer metric %s is not in the per-layer catalog", name)
				}
			}
		})
	}
}

func knownLayerMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestDistMatchesInProcessEngines routes the reduced dist workload's input
// through the distributed coordinator (traced, over the timed connection
// and wrapped policies), the in-process sharded engine and the single
// engine with two workers, and requires identical outcomes.
func TestDistMatchesInProcessEngines(t *testing.T) {
	p := smallDist
	seed := rng.Mix(7, 0)
	m := mesh.MustNewTorus(2, p.side)
	fresh := func() []*sim.Packet {
		pkts, err := workload.FullLoad(m, p.perNode, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	summary := func(r *sim.Result) digest {
		if r.Delivered != r.Total || r.Total != p.side*p.side*p.perNode {
			t.Fatalf("incomplete result: %d of %d delivered", r.Delivered, r.Total)
		}
		return digest{Steps: int64(r.Steps), Hops: r.TotalHops, Deflections: r.TotalDeflections}
	}

	dt := &distTrace{tr: newTracer(), trace: 0, parent: 1}
	out, err := p.once(seed, fresh(), dt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := summary(out.res)
	if len(dt.workers) != p.workers {
		t.Fatalf("%d traced workers, want %d", len(dt.workers), p.workers)
	}
	for i, w := range dt.workers {
		if w.policies.total().calls == 0 || w.conn.framesIn.Load() == 0 || w.conn.framesOut.Load() == 0 {
			t.Fatalf("worker %d recorded nothing: %+v", i, w.policies.total())
		}
	}

	for _, wrapped := range []bool{false, true} {
		newPolicy := func() sim.Policy {
			pol, err := spec.NewPolicy("fixed")
			if err != nil {
				t.Fatal(err)
			}
			if wrapped {
				return (&policySet{}).wrap(pol)
			}
			return pol
		}
		se, err := shard.New(m, newPolicy(), fresh(), shard.Options{Grid: p.grid, Seed: seed, Validation: sim.ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		res, err := se.Run()
		se.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := summary(res); got != want {
			t.Errorf("shard.Engine (wrapped policy %v) = %+v, dshard = %+v", wrapped, got, want)
		}
		e, err := sim.New(m, newPolicy(), fresh(), sim.Options{Workers: 2, Seed: seed, Validation: sim.ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		res, err = e.Run()
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := summary(res); got != want {
			t.Errorf("sim.Engine{Workers: 2} (wrapped policy %v) = %+v, dshard = %+v", wrapped, got, want)
		}
	}
}

// TestWrappersAreTransparent checks that the policy wrapper keeps
// Deterministic and ClonablePolicy, that each clone counts its own calls,
// and that the injector wrapper forwards Exhausted.
func TestWrappersAreTransparent(t *testing.T) {
	for _, name := range []string{"fixed", "restricted"} {
		pol, err := spec.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		set := &policySet{}
		w := set.wrap(pol)
		if w.Deterministic() != pol.Deterministic() || w.Name() != pol.Name() {
			t.Errorf("%s: wrapper changed Name or Deterministic", name)
		}
		_, inner := pol.(sim.ClonablePolicy)
		cw, outer := w.(sim.ClonablePolicy)
		if inner != outer {
			t.Fatalf("%s: inner ClonablePolicy %v, wrapper %v", name, inner, outer)
		}
		if outer {
			if cw.Clone(); len(set.accs) != 2 || set.accs[0] == set.accs[1] {
				t.Errorf("%s: clone does not own an accumulator", name)
			}
		}
	}

	gen, err := traffic.NewPoisson(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewSource(gen)
	if err != nil {
		t.Fatal(err)
	}
	inj := &tracedInjector{inner: src}
	for step := 0; step < 6; step++ {
		if inj.Exhausted(step) != src.Exhausted(step) {
			t.Fatalf("Exhausted(%d) differs through the wrapper", step)
		}
	}
}

// TestFrameCounting feeds dshard frames through the connection wrapper's
// header follower in awkward chunk sizes.
func TestFrameCounting(t *testing.T) {
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = dshard.AppendFrame(stream, byte(i%7+1), make([]byte, i*37))
	}
	for _, chunk := range []int{1, 3, 14, 15, 1000, len(stream)} {
		c := &tracedConn{st: &connStats{}}
		for b := stream; len(b) > 0; {
			k := min(chunk, len(b))
			c.countFrames(b[:k])
			b = b[k:]
		}
		if got := c.st.framesIn.Load(); got != 50 {
			t.Errorf("chunk %d: counted %d frames, want 50", chunk, got)
		}
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the names this
// program reports in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file []metric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	var p pins
	if err := json.Unmarshal(pinsFile, &p); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{p.TuningSeed, p.HeldOutSeed} {
			if _, ok := p.Digests[w.name][strconv.FormatInt(seed, 10)]; !ok {
				t.Errorf("pins.json has no digest for %s at seed %d", w.name, seed)
			}
		}
	}
}

// TestProbeScaling checks how probe times turn into scale factors: the
// mean of the probes inside an interval, the nearest probe when none falls
// inside, and a scaled clock that scales each segment by its own probe.
func TestProbeScaling(t *testing.T) {
	t0 := time.Unix(1000, 0)
	l := &probeLoop{samples: []probeSample{
		{t0, probeNominal},
		{t0.Add(time.Second), 2 * probeNominal},
		{t0.Add(2 * time.Second), 2 * probeNominal},
	}}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 0, 1},
		{900 * time.Millisecond, 2100 * time.Millisecond, 0.5},
		{0, 2 * time.Second, 3.0 / 5},
		{1400 * time.Millisecond, 1500 * time.Millisecond, 0.5}, // nearest: t0+1s
		{-time.Second, -time.Millisecond, 1},                    // nearest: t0
	} {
		if got := l.factor(t0.Add(c.from), t0.Add(c.to)); got != c.want {
			t.Errorf("factor(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}

	defer lockThread()()
	s := &sample{}
	clk := s.startClock(newSpeedProbe())
	for i := 0; i < 3; i++ {
		clk.lap()
	}
	if len(s.probeUS) != 3 || clk.raw <= 0 || clk.scaled <= 0 {
		t.Fatalf("scaled clock: %d probes, raw %v, scaled %v", len(s.probeUS), clk.raw, clk.scaled)
	}
}
