package checkpoint_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// midRunSnapshot builds an engine, steps it partway, and returns the
// snapshot plus the engine's state hash at the capture point.
func midRunSnapshot(t *testing.T) (*sim.Snapshot, uint64, *mesh.Mesh, sim.Options) {
	t.Helper()
	m := mesh.MustNew(2, 8)
	rng := rand.New(rand.NewSource(4))
	packets, err := workload.UniformRandom(m, 48, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 4, Validation: sim.ValidateGreedy, MaxSteps: 4000, DetectLivelock: true}
	e, err := sim.New(m, routing.NewRandomGreedy(), packets, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s, e.StateHash(), m, opts
}

// TestRoundTripFormats: both encodings reproduce the snapshot exactly and a
// restored engine lands on the snapshotted state hash.
func TestRoundTripFormats(t *testing.T) {
	snap, hash, m, opts := midRunSnapshot(t)
	for _, format := range []checkpoint.Format{checkpoint.JSON, checkpoint.Binary} {
		t.Run(string(rune(format)), func(t *testing.T) {
			var buf bytes.Buffer
			if err := checkpoint.WriteValue(&buf, snap, format); err != nil {
				t.Fatal(err)
			}
			got, err := sim.ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, snap) {
				t.Fatalf("round-trip changed the snapshot:\ngot  %+v\nwant %+v", got, snap)
			}
			e, err := sim.New(m, routing.NewRandomGreedy(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(got); err != nil {
				t.Fatal(err)
			}
			if e.StateHash() != hash {
				t.Fatalf("restored hash %#x, want %#x", e.StateHash(), hash)
			}
		})
	}
}

// TestSaveLoadAtomic: Save writes through a temp file + rename; Load reads
// it back; a failed Save leaves no temp litter.
func TestSaveLoadAtomic(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := checkpoint.SaveValue(path, snap, checkpoint.Binary); err != nil {
		t.Fatal(err)
	}
	got, err := sim.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("Save/Load changed the snapshot")
	}
	// Overwrite with the other format; Load must sniff it.
	if err := checkpoint.SaveValue(path, snap, checkpoint.JSON); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestReadRejectsCorruption: garbage, truncation, flipped bytes, a future
// container version and an unknown format byte all fail with ErrBadFile.
func TestReadRejectsCorruption(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	var buf bytes.Buffer
	if err := checkpoint.WriteValue(&buf, snap, checkpoint.Binary); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"future version": corrupt(func(b []byte) { b[5] = 99 }),
		"bad format":     corrupt(func(b []byte) { b[4] = 'Z' }),
		"flipped bit":    corrupt(func(b []byte) { b[len(b)-1] ^= 0x40 }),
		"truncated":      good[:len(good)-7],
		"not a file":     []byte("hello world, definitely not a checkpoint"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := sim.ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, checkpoint.ErrBadFile) {
				t.Errorf("sim.ReadSnapshot(%s) err = %v, want checkpoint.ErrBadFile", name, err)
			}
		})
	}
}

// TestLoadMissingFile: a missing path surfaces the os error, not a panic.
func TestLoadMissingFile(t *testing.T) {
	if _, err := sim.LoadSnapshot(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}
