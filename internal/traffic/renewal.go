package traffic

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hotpotato/internal/mesh"
)

// Interarrival distributions for Renewal sources. All are normalized so
// that the mean interarrival time is 1/rate steps, i.e. rate is always the
// mean arrivals per node per step regardless of the distribution shape.
const (
	// KindExp is exponential interarrivals: the discrete-time Poisson
	// process (memoryless, coefficient of variation 1).
	KindExp = "exp"
	// KindGamma is Gamma(shape) interarrivals: shape > 1 is smoother than
	// Poisson, shape < 1 burstier.
	KindGamma = "gamma"
	// KindWeibull is Weibull(shape) interarrivals: heavy-tailed bursts for
	// shape < 1, aging sources for shape > 1.
	KindWeibull = "weibull"
)

// minInterarrival floors every sampled gap so a pathological draw (underflow
// to zero) can never spin the per-step arrival loop forever.
const minInterarrival = 1e-6

// Renewal generates traffic as an independent renewal process per node:
// each node draws successive interarrival times from the configured
// distribution and emits one packet per arrival epoch. This is the
// ServeGen-style generative arrival model — Poisson is the memoryless
// baseline, Gamma and Weibull bend the burstiness knob either way while
// holding the mean rate fixed.
type Renewal struct {
	// Kind selects the interarrival distribution (KindExp, KindGamma,
	// KindWeibull).
	Kind string
	// Rate is the mean arrivals per node per step (> 0).
	Rate float64
	// Shape is the Gamma/Weibull shape parameter (> 0; ignored by KindExp).
	Shape float64
	// Until stops generation at this step (0 = never stop).
	Until int
	// Class tags every generated packet (tenant/QoS class).
	Class int
	// Dest draws destinations; nil means uniform over other nodes.
	Dest DestFunc

	scale float64   // precomputed distribution scale for the mean-1/rate normalization
	next  []float64 // per-node next arrival epoch, lazily sized to the mesh

	// cal is the event calendar over next: the nodes whose next epoch can
	// still fall inside the window, keyed by next. next stays the
	// source of truth (it is what snapshots carry); cal is rebuilt from it
	// whenever calOK is false — on the first Generate and after a restore.
	cal   calendar
	calOK bool
	due   []mesh.NodeID // scratch: the nodes popped this step
}

var _ StatefulGenerator = (*Renewal)(nil)

// NewRenewal builds a renewal generator; see the Kind constants. rate must
// be positive and shape positive for the shaped distributions.
func NewRenewal(kind string, rate, shape float64, until int) (*Renewal, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: renewal rate %v must be positive", rate)
	}
	if until < 0 {
		return nil, fmt.Errorf("traffic: renewal until %d must be >= 0", until)
	}
	g := &Renewal{Kind: kind, Rate: rate, Shape: shape, Until: until}
	switch kind {
	case KindExp:
		g.Shape = 1
		g.scale = 1 / rate
	case KindGamma:
		if shape <= 0 {
			return nil, fmt.Errorf("traffic: gamma shape %v must be positive", shape)
		}
		// Gamma(shape, 1) has mean shape; divide by shape*rate for mean 1/rate.
		g.scale = 1 / (shape * rate)
	case KindWeibull:
		if shape <= 0 {
			return nil, fmt.Errorf("traffic: weibull shape %v must be positive", shape)
		}
		// Weibull(shape, scale) has mean scale*Gamma(1+1/shape).
		g.scale = 1 / (rate * math.Gamma(1+1/shape))
	default:
		return nil, fmt.Errorf("traffic: unknown renewal kind %q (have: %s, %s, %s)", kind, KindExp, KindGamma, KindWeibull)
	}
	return g, nil
}

// NewPoisson is the Poisson (exponential-interarrival) renewal source.
func NewPoisson(rate float64, until int) (*Renewal, error) {
	return NewRenewal(KindExp, rate, 1, until)
}

func (g *Renewal) sample(rng *rand.Rand) float64 {
	var x float64
	switch g.Kind {
	case KindGamma:
		x = sampleGamma(rng, g.Shape) * g.scale
	case KindWeibull:
		x = g.scale * math.Pow(-math.Log(1-rng.Float64()), 1/g.Shape)
	default:
		x = rng.ExpFloat64() * g.scale
	}
	if x < minInterarrival {
		x = minInterarrival
	}
	return x
}

// sampleGamma draws Gamma(shape, 1) via Marsaglia–Tsang, deterministic
// given the rng; shapes below 1 use the standard U^(1/shape) boost.
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Generate implements Generator: every node emits one packet per renewal
// epoch that falls inside [t, t+1), in node order. Only the nodes due this
// step are visited: they are popped off the calendar, sorted by node id and
// run through the per-node loop (destination, then next gap, per arrival),
// which is exactly the draw order of a scan over every node.
func (g *Renewal) Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	if g.next == nil {
		g.next = make([]float64, m.Size())
		for i := range g.next {
			g.next[i] = g.sample(rng)
		}
	}
	if g.Until > 0 && t >= g.Until {
		return out
	}
	if !g.calOK {
		g.schedule(m)
	}
	limit := float64(t) + 1
	g.due = g.due[:0]
	for len(g.cal) > 0 && g.cal[0].at < limit {
		g.due = append(g.due, heap.Pop(&g.cal).(arrival).node)
	}
	slices.Sort(g.due)
	for _, node := range g.due {
		for g.next[node] < limit {
			out = append(out, Gen{Src: node, Dst: drawDest(g.Dest, node, m, rng), Class: g.Class})
			g.next[node] += g.sample(rng)
		}
		if g.inWindow(g.next[node]) {
			heap.Push(&g.cal, arrival{at: g.next[node], node: node})
		}
	}
	if len(g.cal) == 0 {
		g.cal = nil // the window is spent: free the calendar's backing array
	}
	return out
}

// inWindow reports whether an epoch can still be emitted: the last step
// that generates is Until-1, whose window closes at Until.
func (g *Renewal) inWindow(at float64) bool { return g.Until == 0 || at < float64(g.Until) }

// schedule rebuilds the calendar from next. Nodes whose next epoch is at or
// past Until never enter it, so it holds O(nodes due in the window).
func (g *Renewal) schedule(m *mesh.Mesh) {
	g.cal = g.cal[:0]
	for node := mesh.NodeID(0); int(node) < m.Size(); node++ {
		if at := g.next[node]; g.inWindow(at) {
			g.cal = append(g.cal, arrival{at: at, node: node})
		}
	}
	heap.Init(&g.cal)
	g.calOK = true
}

// Done implements Generator.
func (g *Renewal) Done(t int) bool { return g.Until > 0 && t >= g.Until }

type renewalState struct {
	Next []float64 `json:"next,omitempty"`
}

// SnapshotGenerator implements StatefulGenerator: the per-node renewal
// clocks (float64s round-trip exactly through JSON).
func (g *Renewal) SnapshotGenerator() (json.RawMessage, error) {
	return json.Marshal(renewalState{Next: g.next})
}

// RestoreGenerator implements StatefulGenerator.
func (g *Renewal) RestoreGenerator(data json.RawMessage) error {
	var st renewalState
	if len(data) > 0 {
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
	}
	g.next = st.Next
	g.calOK = false
	return nil
}

// arrival is one calendar entry: a node and its next arrival epoch.
type arrival struct {
	at   float64
	node mesh.NodeID
}

// calendar is a container/heap min-heap of arrivals ordered by epoch.
type calendar []arrival

func (c calendar) Len() int           { return len(c) }
func (c calendar) Less(i, j int) bool { return c[i].at < c[j].at }
func (c calendar) Swap(i, j int)      { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)        { *c = append(*c, x.(arrival)) }
func (c *calendar) Pop() any {
	last := (*c)[len(*c)-1]
	*c = (*c)[:len(*c)-1]
	return last
}
