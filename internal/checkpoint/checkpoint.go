// Package checkpoint persists checkpoint values as versioned checkpoint
// files, so long runs survive crashes and signals: the state is captured
// between steps, written atomically, and restored bit-identically on resume.
// Engine snapshots go through sim.Engine.SaveCheckpoint and
// sim.LoadSnapshot; the sharded engine's per-shard files and manifests use
// the same envelope.
//
// The container format is a fixed header — magic "HPCK", one format byte,
// a little-endian uint32 container version, a little-endian uint32 IEEE
// CRC of the payload — followed by the encoded value. Two payload
// encodings exist: JSON (debuggable, diffable, the default for files
// humans may inspect) and binary (gob; smaller and faster for high-
// frequency checkpointing). ReadValue sniffs the format from the header,
// so callers never need to know which encoding produced a file.
//
// The container version covers the envelope; a value's own schema version
// rides inside the payload and is the caller's to enforce (sim.ReadSnapshot
// checks sim.SnapshotVersion). Both are checked on load, so a checkpoint
// from a future build fails loudly instead of restoring garbage.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the container-format version written into every checkpoint.
const Version = 1

// Format selects the payload encoding.
type Format byte

const (
	// JSON encodes the snapshot as JSON: human-readable and stable across
	// Go versions, the right choice for checkpoints kept around or debugged.
	JSON Format = 'J'
	// Binary encodes the snapshot with encoding/gob: compact and fast, the
	// right choice for high-frequency periodic checkpointing.
	Binary Format = 'B'
)

var magic = [4]byte{'H', 'P', 'C', 'K'}

// ErrBadFile is returned by Read/Load for files that are not checkpoints,
// are truncated or corrupt, or come from a future container version.
var ErrBadFile = errors.New("checkpoint: not a valid checkpoint file")

// WriteValue encodes any checkpointable value into w inside the HPCK
// envelope. The envelope authenticates the container (magic, format byte,
// container version, payload CRC); any schema versioning of the value
// itself rides inside the payload and is the caller's contract — exactly
// how sim.ReadSnapshot enforces sim.SnapshotVersion for engine snapshots.
func WriteValue(w io.Writer, v any, format Format) error {
	var payload bytes.Buffer
	switch format {
	case JSON:
		enc := json.NewEncoder(&payload)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("checkpoint: encode: %w", err)
		}
	case Binary:
		if err := gob.NewEncoder(&payload).Encode(v); err != nil {
			return fmt.Errorf("checkpoint: encode: %w", err)
		}
	default:
		return fmt.Errorf("checkpoint: unknown format %q", byte(format))
	}

	var hdr [13]byte
	copy(hdr[:4], magic[:])
	hdr[4] = byte(format)
	binary.LittleEndian.PutUint32(hdr[5:9], Version)
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// ReadValue decodes a checkpoint produced by WriteValue into v (a non-nil
// pointer), sniffing the payload format from the header and verifying the
// container version and checksum.
func ReadValue(r io.Reader, v any) error {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadFile, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrBadFile, hdr[:4])
	}
	format := Format(hdr[4])
	if ver := binary.LittleEndian.Uint32(hdr[5:9]); ver != Version {
		return fmt.Errorf("%w: container version %d, this build reads %d", ErrBadFile, ver, Version)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: read payload: %v", ErrBadFile, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[9:13]) {
		return fmt.Errorf("%w: payload checksum mismatch (corrupt or truncated)", ErrBadFile)
	}

	switch format {
	case JSON:
		if err := json.Unmarshal(payload, v); err != nil {
			return fmt.Errorf("%w: decode: %v", ErrBadFile, err)
		}
	case Binary:
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
			return fmt.Errorf("%w: decode: %v", ErrBadFile, err)
		}
	default:
		return fmt.Errorf("%w: unknown format byte %q", ErrBadFile, byte(format))
	}
	return nil
}

// SaveValue writes any checkpointable value to path atomically: the bytes
// go to a temporary file in the same directory, are fsynced, and replace
// path with a rename. A crash mid-save therefore leaves the previous
// checkpoint intact — the property periodic checkpointing exists for.
func SaveValue(path string, v any, format Format) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteValue(tmp, v, format); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// LoadValue reads a checkpoint file written by SaveValue into v.
func LoadValue(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := ReadValue(f, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
