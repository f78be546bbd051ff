package sim_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/core"
	"hotpotato/internal/engine"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// driverEngines are the three engines behind sim.Stepper; the distributed
// one runs two in-process workers over loopback TCP.
var driverEngines = []struct {
	name   string
	shards string
	dist   int
}{
	{"sim", "", 0},
	{"shard", "2x2", 0},
	{"dshard", "2x2", 2},
}

const driverSeed = 11

// waitStop gives Drive's stop watcher, which runs on its own goroutine
// after a cancel, time to raise the stop flag.
func waitStop() { time.Sleep(20 * time.Millisecond) }

// driverBuild builds one engine of the given shape on the driver test's
// problem — 12x12 torus, two packets per node, restricted priority —
// restored from resume when it is non-empty.
func driverBuild(t *testing.T, shards string, dist int, pol sim.Policy, resume string) sim.Stepper {
	t.Helper()
	m := mesh.MustNewTorus(2, 12)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(driverSeed)))
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		pol = core.NewRestrictedPriority()
	}
	e, err := engine.Build(engine.Config{
		Mesh: m, Policy: pol, PolicySpec: "restricted", Packets: pkts,
		Seed: driverSeed, Validation: sim.ValidateGreedy, DetectLivelock: true,
		Shards: shards, Dist: dist, Resume: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// flakyRestricted panics once, at one step, in whichever clone routes
// first; the shared flag models a transient fault that does not recur on
// replay.
type flakyRestricted struct {
	sim.Policy
	at    int
	fired *atomic.Bool
}

func (f *flakyRestricted) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	if ns.Time == f.at && f.fired.CompareAndSwap(false, true) {
		panic("transient shard fault")
	}
	f.Policy.Route(ns, out, rng)
}

func (f *flakyRestricted) Clone() sim.Policy {
	return &flakyRestricted{Policy: f.Policy.(sim.ClonablePolicy).Clone(), at: f.at, fired: f.fired}
}

var errSave = errors.New("save failed")

// failingSaves commits its engine's second checkpoint save and then
// returns errSave, like a process killed right after the save.
type failingSaves struct {
	sim.Stepper
	saves int
}

func (f *failingSaves) SaveCheckpoint(dest string, format checkpoint.Format) error {
	if err := f.Stepper.SaveCheckpoint(dest, format); err != nil {
		return err
	}
	if f.saves++; f.saves == 2 {
		return errSave
	}
	return nil
}

// TestRunCheckpointedEngines is the driver contract on every engine: each
// way a run can stop early leaves a checkpoint that resumes to the
// uninterrupted run's final state hash and result, periodic saves land on
// the cadence, and a failed save aborts the run with its error.
func TestRunCheckpointedEngines(t *testing.T) {
	cases := []struct {
		name string
		// run drives the first leg into dest and checks how it stopped.
		run func(t *testing.T, e sim.Stepper, dest string)
		// shardOnly cases need in-process shard rollback.
		shardOnly bool
	}{
		{name: "cancel-before-first-step", run: func(t *testing.T, e sim.Stepper, dest string) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sim.Drive(ctx, e, sim.DriveOptions{Checkpoint: dest}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := e.Progress().Time; got != 0 {
				t.Fatalf("stopped at step %d, want 0", got)
			}
		}},
		{name: "cancel-mid-run", run: func(t *testing.T, e sim.Stepper, dest string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := sim.Drive(ctx, e, sim.DriveOptions{Checkpoint: dest, Every: 4, OnStep: func(p sim.Progress) {
				if p.Time == 6 {
					cancel()
					waitStop()
				}
			}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := e.Progress().Time; got < 6 {
				t.Fatalf("stopped at step %d, before the cancel at 6", got)
			}
		}},
		{name: "deadline", run: func(t *testing.T, e sim.Stepper, dest string) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			res, err := sim.Drive(ctx, e, sim.DriveOptions{Checkpoint: dest, OnStep: func(sim.Progress) {
				time.Sleep(5 * time.Millisecond)
			}})
			if err != nil {
				t.Fatalf("deadline: err = %v, want nil", err)
			}
			if !res.DeadlineExceeded || res.HitMaxSteps {
				t.Fatalf("deadline misreported: %+v", res)
			}
		}},
		{name: "periodic", run: func(t *testing.T, e sim.Stepper, dest string) {
			saves, last := 0, -1
			res, err := sim.Drive(context.Background(), e, sim.DriveOptions{Checkpoint: dest, Every: 4, OnStep: func(p sim.Progress) {
				if p.Time%4 == 0 && p.Time != last {
					saves++
					last = p.Time
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered != res.Total {
				t.Fatalf("periodic run did not finish: %+v", res)
			}
			if want := e.Progress().Time / 4; saves != want {
				t.Fatalf("%d saves over %d steps at every=4, want %d", saves, e.Progress().Time, want)
			}
		}},
		{name: "failed-save", run: func(t *testing.T, e sim.Stepper, dest string) {
			_, err := sim.Drive(context.Background(), &failingSaves{Stepper: e}, sim.DriveOptions{Checkpoint: dest, Every: 4})
			if !errors.Is(err, errSave) {
				t.Fatalf("err = %v, want the save's error", err)
			}
			if got := e.Progress().Time; got != 8 {
				t.Fatalf("stopped at step %d, want 8 (the second save)", got)
			}
		}},
		{name: "shard-panic-rollback", shardOnly: true, run: func(t *testing.T, e sim.Stepper, dest string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := sim.Drive(ctx, e, sim.DriveOptions{Checkpoint: dest, Every: 4, OnStep: func(p sim.Progress) {
				if p.Time == 9 {
					cancel()
					waitStop()
				}
			}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := e.(*shard.Engine).Recoveries(); got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
		}},
	}

	for _, eng := range driverEngines {
		t.Run(eng.name, func(t *testing.T) {
			ref := driverBuild(t, eng.shards, eng.dist, nil, "")
			want, err := sim.Drive(context.Background(), ref, sim.DriveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantHash := ref.StateHash()

			for _, tc := range cases {
				if tc.shardOnly && eng.name != "shard" {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					dest := engine.CheckpointPath(t.TempDir(), "run", eng.shards)
					var first sim.Stepper
					if tc.shardOnly {
						m := mesh.MustNewTorus(2, 12)
						pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(driverSeed)))
						if err != nil {
							t.Fatal(err)
						}
						flaky := &flakyRestricted{Policy: core.NewRestrictedPriority(), at: 5, fired: new(atomic.Bool)}
						se, err := shard.New(m, flaky, pkts, shard.Options{
							Grid: shard.Grid{P: 2, Q: 2}, Seed: driverSeed, Validation: sim.ValidateGreedy,
							DetectLivelock: true, MaxRecoveries: 2,
						})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(se.Close)
						first = se
					} else {
						first = driverBuild(t, eng.shards, eng.dist, nil, "")
					}
					tc.run(t, first, dest)

					// The policy name must match the checkpoint's; the flaky
					// wrapper keeps the restricted policy's.
					resumed := driverBuild(t, eng.shards, eng.dist, nil, dest)
					got, err := sim.Drive(context.Background(), resumed, sim.DriveOptions{})
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if *got != *want {
						t.Errorf("resumed result %+v, uninterrupted %+v", got, want)
					}
					if h := resumed.StateHash(); h != wantHash {
						t.Errorf("resumed final hash %#x, uninterrupted %#x", h, wantHash)
					}
				})
			}
		})
	}
}
