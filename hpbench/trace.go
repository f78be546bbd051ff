package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// span is one timed interval at a layer boundary. Spans of one instance or
// job share Trace; Parent names the span that caused this one. Per-call work
// (Route, OnStep, Inject, conn reads and writes) is not a span of its own:
// it is summed into the busy times and counts of the step span it fell in.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Step   int    `json:"step,omitempty"`
	Worker int    `json:"worker,omitempty"`

	RouteNS    int64 `json:"route_ns,omitempty"`
	RouteCalls int64 `json:"route_calls,omitempty"`
	InjectNS   int64 `json:"inject_ns,omitempty"`
	ObserveNS  int64 `json:"observe_ns,omitempty"`
	ReadNS     int64 `json:"read_ns,omitempty"`
	WriteNS    int64 `json:"write_ns,omitempty"`
	Bytes      int64 `json:"bytes,omitempty"`
	Frames     int64 `json:"frames,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span over [start, end).
func (t *tracer) add(s span, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	s.Start = int64(start.Sub(t.epoch))
	s.End = int64(end.Sub(t.epoch))
	t.spans = append(t.spans, s)
}

// reserve returns a fresh span id for a parent whose span is added once it
// ends, after its children.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addAs records a span under an id obtained from reserve.
func (t *tracer) addAs(id int64, s span, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = id
	s.Start = int64(start.Sub(t.epoch))
	s.End = int64(end.Sub(t.epoch))
	t.spans = append(t.spans, s)
}

// writeFile writes the spans as JSON lines to dir/name.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// busy is time spent in calls across one seam, with the call count.
type busy struct{ ns, calls int64 }

func (b *busy) add(since time.Time) {
	b.ns += int64(time.Since(since))
	b.calls++
}

// policySet wraps policies so every Route call is timed and counted. Each
// wrapped policy, clones included, owns its accumulator, written only by
// the goroutine routing with it; sums are read after those goroutines have
// synchronized with the reader (after a step, or after the run).
type policySet struct {
	mu   sync.Mutex
	accs []*busy
}

// wrap returns p with Route timed. The wrapper keeps p's Name and
// Deterministic, and is a sim.ClonablePolicy exactly when p is one, so the
// engine takes the same code path with and without tracing.
func (s *policySet) wrap(p sim.Policy) sim.Policy {
	acc := &busy{}
	s.mu.Lock()
	s.accs = append(s.accs, acc)
	s.mu.Unlock()
	tp := tracedPolicy{Policy: p, acc: acc, set: s}
	if _, ok := p.(sim.ClonablePolicy); ok {
		return &clonablePolicy{tp}
	}
	return &tp
}

func (s *policySet) total() busy {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t busy
	for _, a := range s.accs {
		t.ns += a.ns
		t.calls += a.calls
	}
	return t
}

type tracedPolicy struct {
	sim.Policy
	acc *busy
	set *policySet
}

func (p *tracedPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	t0 := time.Now()
	p.Policy.Route(ns, out, rng)
	p.acc.add(t0)
}

type clonablePolicy struct{ tracedPolicy }

// Clone clones the wrapped policy and gives the clone its own accumulator.
func (p *clonablePolicy) Clone() sim.Policy {
	return p.set.wrap(p.Policy.(sim.ClonablePolicy).Clone())
}

// tracedInjector times Inject and forwards Exhausted, so Run stops exactly
// when it would without the wrapper.
type tracedInjector struct {
	inner sim.Injector
	acc   busy
}

func (i *tracedInjector) Inject(t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	t0 := time.Now()
	out := i.inner.Inject(t, host, rng)
	i.acc.add(t0)
	return out
}

func (i *tracedInjector) Exhausted(t int) bool { return i.inner.Exhausted(t) }

// tracedObserver times OnStep.
type tracedObserver struct {
	inner sim.Observer
	acc   busy
}

func (o *tracedObserver) OnStep(rec *sim.StepRecord) {
	t0 := time.Now()
	o.inner.OnStep(rec)
	o.acc.add(t0)
}

// connStats is the traffic one dshard worker's connection carried. Reads
// happen on the worker's protocol goroutine, writes also on its heartbeat
// goroutine, so every field is atomic.
type connStats struct {
	readNS, writeNS     atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	framesIn, framesOut atomic.Int64
	wallNS              atomic.Int64
}

// tracedConn times every Read and Write of a worker connection. The
// worker writes each frame with one Write call; inbound frames are counted
// by following the frame headers through the byte stream.
type tracedConn struct {
	net.Conn
	st *connStats

	hdr  [frameHeaderLen]byte // frame header being assembled
	have int                  // header bytes assembled so far
	skip int64                // payload bytes left in the current frame
}

const (
	frameHeaderLen = 14 // magic(4) version(1) type(1) length(4) crc(4)
	frameLenOffset = 6
)

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.st.readNS.Add(int64(time.Since(t0)))
	c.st.bytesIn.Add(int64(n))
	c.countFrames(b[:n])
	return n, err
}

func (c *tracedConn) countFrames(b []byte) {
	for len(b) > 0 {
		if c.skip > 0 {
			k := min(int64(len(b)), c.skip)
			c.skip -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.have:], b)
		c.have += k
		b = b[k:]
		if c.have == frameHeaderLen {
			c.st.framesIn.Add(1)
			c.skip = int64(binary.LittleEndian.Uint32(c.hdr[frameLenOffset:]))
			c.have = 0
		}
	}
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.st.writeNS.Add(int64(time.Since(t0)))
	c.st.bytesOut.Add(int64(n))
	c.st.framesOut.Add(1)
	return n, err
}
