package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

const chaosToken = "chaos-token"

// TestHelperWorker is not a test: it is the worker body for the SIGKILL
// chaos harness. The coordinator side re-executes this test binary with
// SHARDWORKER_HELPER=1 and "-- <addr> <slot>", then kills the process for
// real — the only way to exercise recovery from an actual kill -9 rather
// than an in-process simulation.
func TestHelperWorker(t *testing.T) {
	if os.Getenv("SHARDWORKER_HELPER") != "1" {
		t.Skip("helper process body; only runs when re-executed by the chaos test")
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "helper worker: want -- <addr> <slot>")
		os.Exit(2)
	}
	slot, err := strconv.Atoi(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper worker: bad slot:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := dshard.WorkerOptions{
		Token:    chaosToken,
		Slot:     slot,
		Policies: spec.NewPolicy,
		// Slow each step so the run is long enough for kills to land mid-run
		// on a loopback link that would otherwise finish in milliseconds.
		TestHookPreRoute: func(int) { time.Sleep(5 * time.Millisecond) },
	}
	if err := dshard.RunWorker(ctx, args[0], opts); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "helper worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// chaosSpawner spawns real worker processes (re-execing the test binary)
// and remembers their PIDs so the killer can SIGKILL them behind the
// coordinator's back.
type chaosSpawner struct {
	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

func (s *chaosSpawner) spawn(slot int, addr string) (dshard.WorkerProc, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperWorker$", "--", addr, strconv.Itoa(slot))
	cmd.Env = append(os.Environ(), "SHARDWORKER_HELPER=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &execProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // killed workers exit non-zero by design
		close(p.done)
	}()
	s.mu.Lock()
	s.procs[slot] = cmd
	s.mu.Unlock()
	return p, nil
}

// kill SIGKILLs the current incarnation of a slot — no warning, no flush.
func (s *chaosSpawner) kill(slot int) bool {
	s.mu.Lock()
	cmd := s.procs[slot]
	s.mu.Unlock()
	if cmd == nil {
		return false
	}
	return cmd.Process.Kill() == nil
}

// TestDistChaosSIGKILL is the distributed-durability proof at the process
// level: a coordinator drives four real worker processes, a killer SIGKILLs
// one of them every few steps, and the finished run must be bit-identical —
// every Result field and the final state hash — to the same problem on the
// in-process sharded engine with no kills at all. SHARDCOORD_CHAOS_KILLS
// overrides the kill count (default 5); `make chaos` runs it higher.
func TestDistChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos harness; skipped in -short")
	}
	kills := 5
	if v := os.Getenv("SHARDCOORD_CHAOS_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SHARDCOORD_CHAOS_KILLS %q", v)
		}
		kills = n
	}

	const (
		side     = 8
		seed     = 9
		maxSteps = 400
		workers  = 4
	)
	grid := shard.Grid{P: 2, Q: 2}
	m, err := mesh.NewTorus(2, side)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := spec.NewPolicy("random")
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := spec.ParseValidation("greedy")
	if err != nil {
		t.Fatal(err)
	}
	// The workload generator is deterministic: two draws with the same seed
	// give two independent, identical packet populations.
	newPackets := func() []*sim.Packet {
		pkts, err := spec.NewWorkload("full-load", m, 0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}

	// Reference: the in-process sharded engine, never interrupted.
	se, err := shard.New(m, pol, newPackets(), shard.Options{
		Grid: grid, Seed: seed + 1, Validation: lvl,
		MaxSteps: maxSteps, DetectLivelock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := se.Run()
	if err != nil {
		t.Fatal(err)
	}
	refHash := se.StateHash()
	se.Close()

	// The kill-scarred distributed run of the same problem.
	sp := &chaosSpawner{procs: map[int]*exec.Cmd{}}
	c, err := dshard.New(dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: grid,
		Seed: seed + 1, MaxSteps: maxSteps, Validation: lvl, DetectLivelock: true,
	}, newPackets(), dshard.Options{
		Workers:          workers,
		Token:            chaosToken,
		Policies:         spec.NewPolicy,
		Spawn:            sp.spawn,
		StepTimeout:      5 * time.Second,
		MaxRetries:       3,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: time.Second,
		RejoinTimeout:    30 * time.Second,
		MaxRecoveries:    8 * kills,
		CheckpointEvery:  4,
		Logf: func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos coord: "+f+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var stepEvents atomic.Int64

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killErr := make(chan error, 1)
	var killsDone atomic.Int64
	go func() {
		for i := 0; i < kills; i++ {
			// Wait for forward progress since the last kill, so every kill
			// lands on a run that is genuinely mid-flight.
			base := stepEvents.Load()
			deadline := time.Now().Add(60 * time.Second)
			for stepEvents.Load() < base+3 {
				if time.Now().After(deadline) {
					killErr <- fmt.Errorf("kill %d: no forward progress within 60s", i+1)
					cancel()
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			slot := i % workers
			if !sp.kill(slot) {
				killErr <- fmt.Errorf("kill %d: slot %d had no process", i+1, slot)
				cancel()
				return
			}
			killsDone.Add(1)
		}
		killErr <- nil
	}()

	res, runErr := sim.Drive(ctx, c, sim.DriveOptions{OnStep: func(sim.Progress) { stepEvents.Add(1) }})
	if err := <-killErr; err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("distributed run failed after %d kills: %v", killsDone.Load(), runErr)
	}
	if got := killsDone.Load(); got != int64(kills) {
		t.Fatalf("run finished after only %d of %d kills — not enough mid-run exposure", got, kills)
	}
	if c.Recoveries() < kills {
		t.Errorf("recoveries = %d, want >= %d (every SIGKILL must force a rollback)", c.Recoveries(), kills)
	}

	// Bit-identity with the uninterrupted reference.
	if *res != *refRes {
		t.Errorf("result diverged after kills:\n  got  %+v\n  want %+v", *res, *refRes)
	}
	if got := c.StateHash(); got != refHash {
		t.Errorf("final state hash %016x != uninterrupted %016x", got, refHash)
	}
	t.Logf("survived %d SIGKILLs with %d recoveries; %d steps, hash %016x",
		kills, c.Recoveries(), res.Steps, c.StateHash())
}
