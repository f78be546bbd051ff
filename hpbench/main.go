// Command hpbench is the repository's benchmark. It runs one or more named
// workloads against the simulator, its distributed runtime and the
// hotpotatod service, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing installed. With -trace 1 the run is split in two halves, one
// untraced and one traced, and the metrics are the per-layer metrics of the
// traced half plus the tracing overhead (traced minus untraced). All timings
// are host time (thread CPU time on the single-threaded workloads, wall
// time on the others), scaled by the speed probe of probe.go to cancel the
// drift of a shared machine's speed (see README.md). Simulated quantities
// (steps, hops, deflections, simulated latency) form the correctness digest
// and are never used as a speed.
//
// Build and run it from the root of a checkout with run.sh, which keeps every
// build and run artifact under .bench_build/:
//
//	bash hpbench/run.sh --workload batch-perm-64 --seed 1 --seconds 20 --trace 0
//	bash hpbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"hops_per_s", "hops/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p99", "ms"},
	{"heap_mb", "MiB"},
}

// perLayer lists the metrics of single modules, reported by traced runs. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"mesh.build_ms", "ms"},
	{"workload.gen_us_p50", "us"},
	{"sim.new_us_p50", "us"},
	{"sim.self_ns_per_hop", "ns/hop"},
	{"sim.self_frac", "ratio"},
	{"sim.alloc_bytes_per_hop", "B/hop"},
	{"sim.steps", "steps"},
	{"sim.hops", "hops"},
	{"sim.deflections", "hops"},
	{"sim.advance_frac", "ratio"},
	{"sim.latency_steps_p50", "steps"},
	{"sim.latency_steps_p99", "steps"},
	{"routing.calls", "count"},
	{"routing.ns_per_call", "ns/call"},
	{"routing.frac", "ratio"},
	{"core.ns_per_step", "ns/step"},
	{"core.frac", "ratio"},
	{"traffic.ns_per_step", "ns/step"},
	{"traffic.frac", "ratio"},
	{"traffic.injected", "count"},
	{"traffic.backlog_max", "count"},
	{"shard.worker_busy_frac", "ratio"},
	{"dshard.wire_bytes_per_step", "B/step"},
	{"dshard.frames_per_step", "frames/step"},
	{"dshard.read_wait_frac", "ratio"},
	{"dshard.write_frac", "ratio"},
	{"dshard.recoveries", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.first_event_ms_p50", "ms"},
	{"server.rejected_429", "count"},
	{"sim.job_ms_p50", "ms"},
	{"shard.job_ms_p50", "ms"},
	{"dshard.job_ms_p50", "ms"},
	{"store.fsync_ms_mean", "ms"},
	{"store.fsyncs_per_job", "count"},
	{"failed_frac", "ratio"},
	{"tracing.hops_per_s_delta", "hops/s"},
	{"tracing.jobs_per_s_delta", "jobs/s"},
	{"host.probe_us_p50", "us"},
}

// config is what one workload run receives.
type config struct {
	seed   int64
	budget time.Duration // timed section of one measured half
	outDir string        // for the service's files and a traced run's spans
}

// benchWorkload is one named set of inputs.
type benchWorkload struct {
	name string
	// measure runs the workload for cfg.budget, traced or not, and returns
	// its samples. Check failures go to rep; an error aborts the run.
	measure func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error)
}

var workloads = []benchWorkload{
	{"batch-perm-64", func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureBatch(fullBatch, cfg, traced, tr, rep)
	}},
	{"poisson-512", func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measurePoisson(fullPoisson, cfg, traced, tr, rep)
	}},
	{"dist-fullload-256", func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureDist(fullDist, cfg, traced, tr, rep)
	}},
	{"service-mix", func(cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
		return measureService(fullService, cfg, traced, tr, rep)
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	fs := flag.NewFlagSet("hpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workload names, or \"all\"")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "length of the timed section of one run")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	chosen, err := pick(*names)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("-seconds must be positive and -trace 0 or 1")
		}
		fmt.Fprintln(stderr, "hpbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# hpbench %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%d (all timings are host time)\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds, *trace)

	total := &report{}
	metrics := map[string]any{}
	for _, w := range chosen {
		cfg := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), outDir: ".bench_build"}
		rep, err := runWorkload(w, cfg, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "hpbench: %s: %v\n", w.name, err)
			return 1
		}
		total.merge(rep)
		defs, vals := endToEnd, rep.e2e
		if *trace == 1 {
			defs, vals = perLayer, rep.layer
		}
		for _, d := range defs {
			key := d.name
			if len(chosen) > 1 {
				key = w.name + "/" + d.name
			}
			metrics[key] = map[string]any{"value": vals[d.name], "unit": d.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   total.failed == 0,
		"attempted": total.attempted,
		"failed":    total.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if total.failed > 0 {
		return 1
	}
	return 0
}

func pick(list string) ([]benchWorkload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []benchWorkload
	for _, name := range strings.Split(list, ",") {
		i := workloadIndex(strings.TrimSpace(name))
		if i < 0 {
			var have []string
			for _, w := range workloads {
				have = append(have, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have: %s, all)", name, strings.Join(have, ", "))
		}
		out = append(out, workloads[i])
	}
	return out, nil
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// runWorkload measures one workload and prints its tables. An untraced run
// measures once for the whole budget; a traced run measures an untraced
// half and a traced half, checks that both give the same digest, and
// reports the traced half's layers with the difference between the halves.
func runWorkload(w benchWorkload, cfg config, traced bool, stdout io.Writer) (*report, error) {
	rep := &report{}
	plainCfg := cfg
	if traced {
		plainCfg.budget /= 2
	}
	plain, err := w.measure(plainCfg, false, nil, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e = plain.endToEnd()
	s := plain // the sample whose digest and layers are reported
	if traced {
		tr := newTracer()
		s, err = w.measure(plainCfg, true, tr, rep)
		if err != nil {
			return nil, err
		}
		rep.verify("traced-digest-equals-untraced", s.digest == plain.digest)
		withTracing := s.endToEnd()
		s.layer["tracing.hops_per_s_delta"] = withTracing["hops_per_s"] - rep.e2e["hops_per_s"]
		s.layer["tracing.jobs_per_s_delta"] = withTracing["jobs_per_s"] - rep.e2e["jobs_per_s"]
		if path, err := tr.writeFile(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed)); err != nil {
			fmt.Fprintf(stdout, "# spans not written: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# %d spans written to %s\n", len(tr.spans), path)
		}
	}
	checkPinned(w.name, cfg.seed, s.digest, rep)
	rep.layer = s.layer
	if rep.layer == nil {
		rep.layer = map[string]float64{}
	}
	rep.layer["failed_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.layer["host.probe_us_p50"] = median(s.probeUS)
	d := s.digest
	rep.layer["sim.steps"] = float64(d.Steps)
	rep.layer["sim.hops"] = float64(d.Hops)
	rep.layer["sim.deflections"] = float64(d.Deflections)
	rep.layer["sim.advance_frac"] = d.advanceFrac()
	rep.layer["sim.latency_steps_p50"] = float64(d.LatencyP50)
	rep.layer["sim.latency_steps_p99"] = float64(d.LatencyP99)

	fmt.Fprintf(stdout, "## %s: %d operations attempted, %d failed (failed_frac %g)\n",
		w.name, rep.attempted, rep.failed, rep.layer["failed_frac"])
	for _, name := range sortedKeys(rep.failures) {
		fmt.Fprintf(stdout, "#   FAILED check %s: %d\n", name, rep.failures[name])
	}
	dj, _ := json.Marshal(d)
	fmt.Fprintf(stdout, "#   digest %s\n", dj)
	fmt.Fprintf(stdout, "#   samples: %d operations, %d jobs, %d rates, %d setups\n",
		len(plain.opMS), len(plain.jobMS), len(plain.jobRates), len(plain.setupS))
	if len(plain.opMS) <= 10 {
		fmt.Fprintf(stdout, "#   per-operation ms: %.1f\n", plain.opMS)
	}
	if len(plain.probeUS) > 0 {
		fmt.Fprintf(stdout, "#   scaled by the speed probe: unscaled run_ms_p50 %.4g ms; probe p50 %.5g us over %d probes (nominal %v)\n",
			median(plain.rawOpMS), median(plain.probeUS), len(plain.probeUS), probeNominal)
	}
	if !traced {
		printTable(stdout, "end-to-end", endToEnd, rep.e2e)
	} else {
		printTable(stdout, "end-to-end (untraced half)", endToEnd, rep.e2e)
		printTable(stdout, "per-layer (traced half)", perLayer, rep.layer)
	}
	return rep, nil
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "#   %s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "#     %-28s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
