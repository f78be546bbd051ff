// Package engine builds the engine a run asks for — the single engine
// (internal/sim), the in-process sharded engine (internal/shard) or the
// distributed coordinator over loopback workers (internal/dshard) — behind
// the one sim.Stepper contract that sim.Drive runs. It owns the rules for
// which run shapes combine (Shape.Check) and where each engine keeps its
// checkpoint: a ".hpck" file for the single engine, a ".shards" directory
// for the other two, which resume each other's checkpoints.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// Shape is the part of a run the engine choice depends on.
type Shape struct {
	// Dim is the mesh dimension.
	Dim int
	// Workers > 1 routes nodes concurrently inside the single engine.
	Workers int
	// Shards, when non-empty ("PxQ"), selects the sharded engine.
	Shards string
	// Dist > 0, with Shards, runs the shards on that many loopback worker
	// processes.
	Dist int
	// Faults, Observers and Arrivals report whether the run carries a fault
	// model, step or conflict observers, and an arrival process.
	Faults, Observers, Arrivals bool
}

// Check applies the shard and dist rules every surface shares: shards need
// a 2-D mesh and exclude in-engine workers, faults and observers; dist
// needs shards, excludes arrivals, and runs 1 to grid.Count() workers. The
// messages name the daemon's job-spec fields.
func (s Shape) Check() error {
	if s.Dist < 0 {
		return fmt.Errorf("dist_workers must be >= 0, got %d", s.Dist)
	}
	if s.Dist > 0 && s.Shards == "" {
		return errors.New("dist_workers needs shards (a PxQ grid for the workers to divide)")
	}
	if s.Shards == "" {
		return nil
	}
	grid, err := shard.ParseGrid(s.Shards)
	if err != nil {
		return err
	}
	switch {
	case s.Dim != 2:
		return fmt.Errorf("shards needs dim 2 (the sharded engine decomposes 2-D meshes), got dim %d", s.Dim)
	case s.Workers != 0:
		return errors.New("shards and workers are alternative parallelization schemes; pick one")
	case s.Faults:
		return errors.New("sharded jobs do not support fault injection")
	case s.Observers:
		return errors.New("sharded jobs do not support observers (trackers, traces and conflict taps see one engine's move stream)")
	case s.Dist > grid.Count():
		return fmt.Errorf("dist_workers %d exceeds the %s grid's %d shards", s.Dist, s.Shards, grid.Count())
	case s.Dist > 0 && s.Arrivals:
		return errors.New("distributed jobs do not support arrivals (injector state cannot ride a dshard checkpoint)")
	}
	return nil
}

// Config describes one engine to build.
type Config struct {
	// Mesh is the network.
	Mesh *mesh.Mesh
	// Policy is a fresh routing policy for this engine. PolicySpec is its
	// registry spec (see spec.NewPolicy); distributed workers rebuild the
	// policy from it, so it is required when Dist > 0.
	Policy     sim.Policy
	PolicySpec string
	// Packets is the initial batch; ignored on resume.
	Packets []*sim.Packet
	// Seed, MaxSteps, Validation, DetectLivelock and Workers mean what they
	// do in sim.Options.
	Seed           int64
	MaxSteps       int
	Validation     sim.ValidationLevel
	DetectLivelock bool
	Workers        int
	// Shards and Dist select the engine (see Shape).
	Shards string
	Dist   int

	// Injector, Faults with Fate, Observers and Conflicts are installed
	// before a resume restores their state. All but Injector are single-
	// engine only.
	Injector  sim.Injector
	Faults    sim.FaultModel
	Fate      sim.PacketFate
	Observers []sim.Observer
	Conflicts sim.ConflictObserver

	// Resume names a checkpoint (see CheckpointPath) to restore instead of
	// starting from Packets.
	Resume string
}

// shape returns the config's run shape.
func (c Config) shape() Shape {
	return Shape{
		Dim:       c.Mesh.Dim(),
		Workers:   c.Workers,
		Shards:    c.Shards,
		Dist:      c.Dist,
		Faults:    c.Faults != nil,
		Observers: len(c.Observers) > 0 || c.Conflicts != nil,
		Arrivals:  c.Injector != nil,
	}
}

// distToken is the shared secret between a coordinator and its loopback
// workers. The listener is per-run and ephemeral, so the token guards
// against cross-talk (a stray worker from another run), not an adversary.
const distToken = "hotpotato-dist"

// Build checks the config's shape and builds its engine, restored from
// c.Resume when set. The caller drives it with sim.Drive and closes it.
func Build(c Config) (sim.Stepper, error) {
	if err := c.shape().Check(); err != nil {
		return nil, err
	}
	e, err := build(c)
	switch {
	case err == nil:
		return e, nil
	case c.Resume != "":
		return nil, fmt.Errorf("resume from %s: %w", c.Resume, err)
	}
	return nil, err
}

func build(c Config) (sim.Stepper, error) {
	if c.Shards == "" {
		e, err := sim.New(c.Mesh, c.Policy, c.packets(), sim.Options{
			Seed:           c.Seed,
			MaxSteps:       c.MaxSteps,
			Validation:     c.Validation,
			DetectLivelock: c.DetectLivelock,
			Workers:        c.Workers,
		})
		if err != nil {
			return nil, err
		}
		if c.Faults != nil {
			e.SetFaults(c.Faults, c.Fate)
		}
		if c.Injector != nil {
			e.SetInjector(c.Injector)
		}
		for _, o := range c.Observers {
			e.AddObserver(o)
		}
		if c.Conflicts != nil {
			e.SetConflictObserver(c.Conflicts)
		}
		if c.Resume != "" {
			snap, err := sim.LoadSnapshot(c.Resume)
			if err != nil {
				return nil, err
			}
			if err := e.Restore(snap); err != nil {
				e.Close()
				return nil, err
			}
		}
		return e, nil
	}

	grid, err := shard.ParseGrid(c.Shards)
	if err != nil {
		return nil, err
	}
	var resume *shard.Checkpoint
	if c.Resume != "" {
		if resume, err = shard.LoadDir(c.Resume); err != nil {
			return nil, err
		}
	}
	if c.Dist > 0 {
		return dshard.New(dshard.Spec{
			Side:           c.Mesh.Side(),
			Wrap:           c.Mesh.Wrap(),
			Policy:         c.PolicySpec,
			Grid:           grid,
			Seed:           c.Seed,
			MaxSteps:       c.MaxSteps,
			Validation:     c.Validation,
			DetectLivelock: c.DetectLivelock,
		}, c.packets(), dshard.Options{
			Workers:  c.Dist,
			Token:    distToken,
			Policies: spec.NewPolicy,
			Spawn:    dshard.InProcessSpawner(dshard.WorkerOptions{Token: distToken, Policies: spec.NewPolicy}),
			Resume:   resume,
		})
	}
	e, err := shard.New(c.Mesh, c.Policy, c.packets(), shard.Options{
		Grid:           grid,
		Seed:           c.Seed,
		MaxSteps:       c.MaxSteps,
		Validation:     c.Validation,
		DetectLivelock: c.DetectLivelock,
	})
	if err != nil {
		return nil, err
	}
	if c.Injector != nil {
		e.SetInjector(c.Injector)
	}
	if resume != nil {
		if err := e.Restore(resume); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// packets is the initial batch, or none on resume (the checkpoint carries
// the packets).
func (c Config) packets() []*sim.Packet {
	if c.Resume != "" {
		return nil
	}
	return c.Packets
}

// CheckpointPath names a run's checkpoint under dir: name.shards (a
// directory) for sharded and distributed runs, name.hpck otherwise.
func CheckpointPath(dir, name, shards string) string {
	if shards != "" {
		return filepath.Join(dir, name+".shards")
	}
	return filepath.Join(dir, name+".hpck")
}

// HasCheckpoint reports whether path holds a committed checkpoint: a
// ".shards" directory with its manifest, or a ".hpck" file.
func HasCheckpoint(path string) bool {
	if filepath.Ext(path) == ".shards" {
		return shard.HasCheckpoint(path)
	}
	_, err := os.Stat(path)
	return err == nil
}
