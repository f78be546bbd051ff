package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hotpotato/internal/checkpoint"
)

// Stepper is the contract every engine implements — the single engine, the
// in-process sharded engine (internal/shard) and the distributed
// coordinator (internal/dshard) — so one driver, Drive, runs them all. The
// engines are bit-identical per step; Stepper is the part of their surface
// a run loop needs.
//
// Crash recovery is the engine's own business: a sharded engine rolls back
// a panicked shard, and the coordinator rolls back a lost worker, inside
// Step and SaveCheckpoint. A Step that recovered returns nil with the clock
// moved back to the rollback point.
type Stepper interface {
	// Step advances the run by one synchronous step.
	Step() error
	// Runnable reports whether the run has work left: packets in flight or
	// an injector still producing, no livelock, and step budget remaining.
	Runnable() bool
	// Progress returns the current counters; valid between steps.
	Progress() Progress
	// StateHash returns the configuration hash, bit-identical across the
	// engines in the same state; valid between steps (the coordinator's
	// once a run has stopped).
	StateHash() uint64
	// SaveCheckpoint writes the state between steps to dest in the engine's
	// on-disk format: an HPCK file for the single engine, a checkpoint
	// directory (shard.SaveDir) for the other two.
	SaveCheckpoint(dest string, format checkpoint.Format) error
	// Result summarizes the run so far. The driver fills in
	// DeadlineExceeded.
	Result() *Result
	// Close releases the engine's goroutines, workers and listeners.
	Close()
}

// DriveOptions configures Drive. The zero value runs without checkpoints
// or callbacks.
type DriveOptions struct {
	// Checkpoint is where the run's checkpoint goes (see
	// Stepper.SaveCheckpoint); empty disables checkpointing.
	Checkpoint string
	// Format is the checkpoint encoding (default checkpoint.Binary).
	Format checkpoint.Format
	// Every > 0 also saves the checkpoint after every Every steps of
	// progress, so a crash loses at most Every steps.
	Every int
	// OnStep, when non-nil, is called after every step that advanced the
	// clock, with the progress after it (after any periodic save of that
	// step). A step that only rolled back does not call it.
	OnStep func(Progress)
}

// Drive steps e until its run ends or ctx stops it, and returns the summary.
//
// ctx is checked with one atomic load per step, so the step in flight
// always finishes. A ctx deadline ends the run with Result.DeadlineExceeded
// set and a nil error. Cancellation returns the partial summary together
// with ctx.Err(), so callers can tell an interrupted run from an exhausted
// one. The engine stays valid either way.
//
// With a checkpoint destination, an early stop (cancellation or deadline)
// always leaves a resumable checkpoint of the stop point, even before the
// first step. A save that is already current is not repeated. A failed save
// aborts the run with its error.
func Drive(ctx context.Context, e Stepper, o DriveOptions) (*Result, error) {
	var stop atomic.Bool
	if ctx.Done() != nil {
		stop.Store(ctx.Err() != nil)
		defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	}
	if o.Format == 0 {
		o.Format = checkpoint.Binary
	}
	save := func() error {
		if err := e.SaveCheckpoint(o.Checkpoint, o.Format); err != nil {
			return fmt.Errorf("sim: checkpoint save: %w", err)
		}
		return nil
	}

	p := e.Progress()
	lastSave, savedAt := p.Time, -1
	for e.Runnable() && !stop.Load() {
		prev := p.Time
		if err := e.Step(); err != nil {
			return nil, err
		}
		p = e.Progress()
		if o.Every > 0 && o.Checkpoint != "" && p.Time-lastSave >= o.Every {
			if err := save(); err != nil {
				return nil, err
			}
			p = e.Progress() // a recovering save may have rolled back
			lastSave, savedAt = p.Time, p.Time
		}
		if o.OnStep != nil && p.Time > prev {
			o.OnStep(p)
		}
	}
	if !e.Runnable() {
		return e.Result(), nil
	}

	// Stopped early: resolve the cause, then leave a resumable checkpoint.
	var runErr error
	deadline := false
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		runErr = err
	} else {
		deadline = true
	}
	if o.Checkpoint != "" && savedAt != p.Time {
		if err := save(); err != nil {
			return nil, err
		}
	}
	res := e.Result()
	res.DeadlineExceeded = deadline
	return res, runErr
}
