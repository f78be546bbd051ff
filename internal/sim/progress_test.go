package sim

import (
	"context"
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
)

func TestProgressSampler(t *testing.T) {
	m, err := mesh.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A uniform-random batch, built inline (the workload package sits above
	// sim in the import graph).
	rnd := rand.New(rand.NewSource(5))
	var pkts []*Packet
	for id := 0; id < 48; id++ {
		// One packet per source node, so no origin exceeds its out-degree.
		pkts = append(pkts, NewPacket(id, mesh.NodeID(id), mesh.NodeID(rnd.Intn(m.Size()))))
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Seed: 5, Validation: ValidateBasic})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch sampling as the service does it: every third step's progress,
	// through the driver's per-step callback.
	var samples []Progress
	res, err := Drive(context.Background(), e, DriveOptions{OnStep: func(p Progress) {
		if p.Time%3 == 0 {
			samples = append(samples, p)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no progress samples for a multi-step run")
	}
	for i, p := range samples {
		if p.Total != res.Total {
			t.Errorf("sample %d: total %d, want %d", i, p.Total, res.Total)
		}
		if p.Delivered+p.Live+p.Dropped+p.Absorbed != p.Total {
			t.Errorf("sample %d: ledger does not balance: %+v", i, p)
		}
		if i > 0 {
			prev := samples[i-1]
			if p.Time != prev.Time+3 {
				t.Errorf("sample %d: time %d, want %d (every 3 steps)", i, p.Time, prev.Time+3)
			}
			if p.Delivered < prev.Delivered || p.TotalHops < prev.TotalHops {
				t.Errorf("sample %d: counters went backwards: %+v -> %+v", i, prev, p)
			}
		}
	}
	// The closing snapshot agrees with the result.
	final := e.Progress()
	if final.Delivered != res.Delivered || final.Live != 0 {
		t.Errorf("final progress %+v disagrees with result %+v", final, res)
	}
	if final.TotalHops != res.TotalHops || final.TotalDeflections != res.TotalDeflections {
		t.Errorf("final counters %+v disagree with result %+v", final, res)
	}
}
