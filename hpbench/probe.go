package main

import (
	"sync"
	"time"
)

// On a shared virtual machine the host's speed drifts by 20% and more
// within minutes, as other tenants contend for the cores and their caches:
// the same batch instance takes 35 ms in one minute and 65 ms in the next,
// with no time stolen from the virtual CPU. So the benchmark times a fixed
// kernel of its own, the speed probe, next to the work, and reports every
// timing scaled by probeNominal / probe time. The single-threaded workloads
// run the probe on their own thread right after every segment of work (a
// set-up, a batch instance, a Poisson run's set-up and every probeEvery
// steps of it) and scale the segment by it; the multi-threaded ones run a
// probeLoop and scale each interval by the probes inside it. The probe and
// the program slow down together, so the scaled times keep what the
// program costs and drop most of what the neighbours cost. The probe's own
// times are reported as host.probe_us_p50, and the unscaled times are
// printed beside the scaled ones.

const (
	probeWords = 1 << 17 // a 1 MiB table: it lives in the core's caches, like a batch instance
	probeWarm  = 50_000  // untimed updates that bring the table back into cache
	probeIters = 200_000 // timed updates
	// probeNominal sets the unit of scaled times: host time on a machine
	// where the probe takes this long, as it does on an uncontended 2.0 GHz
	// Xeon virtual CPU.
	probeNominal = 700 * time.Microsecond
	// probeInterval is the period of a probeLoop: the probe then takes
	// about 2% of one CPU.
	probeInterval = 50 * time.Millisecond
	// probeEvery is the number of engine steps between probes inside one
	// Poisson run (about 60 ms of work at 512x512).
	probeEvery = 20
)

// speedProbe runs pseudo-random read-modify-writes over its table.
type speedProbe struct {
	table []uint64
	x     uint64
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{table: offHeapWords(probeWords), x: 88172645463325252}
}

func (p *speedProbe) spin(n int) {
	x := p.x
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % probeWords
		p.table[j] = p.table[j]*31 + x
	}
	p.x = x
}

// measure runs the probe and returns its thread CPU time, which, like the
// thread CPU time of the work it scales, leaves out time stolen by the
// hypervisor.
func (p *speedProbe) measure() time.Duration {
	p.spin(probeWarm)
	t0 := threadCPU()
	p.spin(probeIters)
	return threadCPU() - t0
}

// measureWall runs the probe and returns its wall time less the time its
// thread waited for a CPU. Like the wall time of the work it scales, this
// counts time stolen by the hypervisor; unlike it, it leaves out waiting
// behind the workload's own threads, so the workload's load does not scale
// its own times.
func (p *speedProbe) measureWall() time.Duration {
	p.spin(probeWarm)
	w0, t0 := runDelay(), time.Now()
	p.spin(probeIters)
	return time.Since(t0) - (runDelay() - w0)
}

// scaledClock times one operation on the calling thread's CPU clock,
// segment by segment, each segment scaled by the probe run right after it.
type scaledClock struct {
	probe       *speedProbe
	s           *sample // receives every probe time
	start       time.Duration
	raw, scaled time.Duration
}

func (s *sample) startClock(p *speedProbe) *scaledClock {
	return &scaledClock{probe: p, s: s, start: threadCPU()}
}

// lap ends the current segment, runs the probe, and starts the next
// segment once the probe is done.
func (c *scaledClock) lap() {
	d := threadCPU() - c.start
	pr := c.probe.measure()
	c.raw += d
	c.scaled += time.Duration(float64(d) * float64(probeNominal) / float64(pr))
	c.s.probeUS = append(c.s.probeUS, us(pr))
	c.start = threadCPU()
}

// probeSample is one probe taken by a probeLoop.
type probeSample struct {
	at time.Time
	d  time.Duration
}

// probeLoop runs the speed probe on a thread of its own every interval,
// for the multi-threaded workloads, whose work moves between the virtual
// CPUs: the probe's thread moves between them too.
type probeLoop struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []probeSample // written by the loop until done is closed
}

func startProbeLoop(interval time.Duration) *probeLoop {
	l := &probeLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		defer lockThread()()
		p := newSpeedProbe()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			d := p.measureWall()
			l.samples = append(l.samples, probeSample{time.Now(), d})
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return l
}

// finish stops the loop and waits for it; samples may be read afterwards.
// Later calls return at once.
func (l *probeLoop) finish() {
	l.once.Do(func() {
		close(l.stop)
		<-l.done
	})
}

// factor is probeNominal over the mean probe time taken in [from, to]
// (the nearest probe when none falls inside): multiply a time measured in
// that interval by it to scale it.
func (l *probeLoop) factor(from, to time.Time) float64 {
	var sum time.Duration
	n := 0
	for _, s := range l.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.d
			n++
		}
	}
	if n == 0 {
		best := l.samples[0]
		for _, s := range l.samples {
			if s.at.Sub(from).Abs() < best.at.Sub(from).Abs() {
				best = s
			}
		}
		sum, n = best.d, 1
	}
	return float64(probeNominal) * float64(n) / float64(sum)
}

// micros returns the probe times in microseconds.
func (l *probeLoop) micros() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = us(s.d)
	}
	return out
}
