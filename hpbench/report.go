package main

import (
	_ "embed"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// report counts what a run attempted and which named checks failed.
type report struct {
	attempted, failed int
	failures          map[string]int
	e2e, layer        map[string]float64
}

// checks collects the named checks of one operation; an operation fails if
// any of its checks does.
type checks struct{ failed []string }

func (c *checks) expect(name string, ok bool) {
	if !ok {
		c.failed = append(c.failed, name)
	}
}

// record counts one operation and its failed checks.
func (r *report) record(c checks) {
	r.attempted++
	if len(c.failed) == 0 {
		return
	}
	r.failed++
	if r.failures == nil {
		r.failures = map[string]int{}
	}
	for _, name := range c.failed {
		r.failures[name]++
	}
}

// verify counts one whole-run check (a digest comparison) as an operation.
func (r *report) verify(name string, ok bool) {
	var c checks
	c.expect(name, ok)
	r.record(c)
}

func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
}

// digest is the simulated outcome of a run's first operation(s). It is a
// function of the seed alone, so it must repeat exactly: between runs,
// between the traced and untraced halves, and across any change that claims
// only to be faster.
type digest struct {
	Steps       int64 `json:"steps"`
	Hops        int64 `json:"hops"`
	Deflections int64 `json:"deflections"`
	LatencyP50  int   `json:"latency_p50"`
	LatencyP99  int   `json:"latency_p99"`
}

// advanceFrac is the share of hops that moved a packet closer to its
// destination.
func (d digest) advanceFrac() float64 {
	if d.Hops == 0 {
		return 0
	}
	return float64(d.Hops-d.Deflections) / float64(d.Hops)
}

// pinsFile holds the digests pinned for the tuning seed and the held-out
// seed. A run at a pinned seed whose digest differs fails.
//
//go:embed pins.json
var pinsFile []byte

type pins struct {
	TuningSeed  int64                        `json:"tuning_seed"`
	HeldOutSeed int64                        `json:"heldout_seed"`
	Digests     map[string]map[string]digest `json:"digests"`
}

func checkPinned(workload string, seed int64, d digest, rep *report) {
	var p pins
	if err := json.Unmarshal(pinsFile, &p); err != nil {
		rep.verify("pins-file-readable", false)
		return
	}
	want, ok := p.Digests[workload][strconv.FormatInt(seed, 10)]
	if ok {
		rep.verify("digest-matches-pin", want == d)
	}
}

// sample is what one measured half of a run collected.
type sample struct {
	// Timings are scaled by the speed probe (probe.go).
	setupS   []float64 // seconds per set-up repetition
	opMS     []float64 // milliseconds per operation: an instance, a run or a daemon job
	jobMS    []float64 // milliseconds per job: a batch sweep cell, a run or a daemon job
	hopRates []float64 // simulated hops per second, per operation (per window on service-mix)
	jobRates []float64 // jobs per second, per job (per window on service-mix)
	heapMB   float64
	rawOpMS  []float64 // unscaled operation times, where opMS holds scaled ones
	probeUS  []float64 // speed probe times, microseconds
	digest   digest
	layer    map[string]float64
}

// addOp records one operation of a workload that runs its operations one
// at a time: its scaled and unscaled times, and its hop rate as if the
// section held only it.
func (s *sample) addOp(scaled, raw time.Duration, hops int64) {
	s.opMS = append(s.opMS, ms(scaled))
	s.rawOpMS = append(s.rawOpMS, ms(raw))
	s.hopRates = append(s.hopRates, float64(hops)/scaled.Seconds())
}

// timedOp is an interval of wall-clock work on a multi-threaded workload.
type timedOp struct {
	start, end time.Time
	hops       int64
}

// scaled is the interval's duration scaled by the probes l took in it.
func (o timedOp) scaled(l *probeLoop) time.Duration {
	return time.Duration(float64(o.end.Sub(o.start)) * l.factor(o.start, o.end))
}

// addJob records one job of a workload that runs its jobs one at a time.
func (s *sample) addJob(d time.Duration) {
	s.jobMS = append(s.jobMS, ms(d))
	s.jobRates = append(s.jobRates, 1/d.Seconds())
}

func (s *sample) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":    median(s.setupS),
		"hops_per_s": median(s.hopRates),
		"run_ms_p50": quantile(s.opMS, 0.5),
		"run_ms_p90": quantile(s.opMS, 0.9),
		"jobs_per_s": median(s.jobRates),
		"job_ms_p50": quantile(s.jobMS, 0.5),
		"job_ms_p99": quantile(s.jobMS, 0.99),
		"heap_mb":    s.heapMB,
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rankPercentile is the nearest-rank q-percentile of integer data (so a
// digest stays an integer); 0 for an empty sample.
func rankPercentile(xs []int, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// timedLoop runs op(0), op(1), ... and stops before an operation that would
// likely end past the budget, judged by the mean operation time so far. It
// always runs at least max(minOps, 1) operations.
func timedLoop(budget time.Duration, minOps int, op func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= max(minOps, 1) && el+el/time.Duration(i) > budget {
			return nil
		}
		if err := op(i); err != nil {
			return err
		}
	}
}
