package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Snapshot wire format: an 8-byte magic, a little-endian uint32 format
// version, the gob-encoded engine state, and a trailing little-endian
// CRC32C covering everything before it. The trailer turns silent disk
// corruption and torn checkpoint writes into typed errors instead of
// undefined gob-decode behavior.
const snapshotVersion = 2

var snapshotMagic = [8]byte{'G', 'B', 'S', 'N', 'A', 'P', '0', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt reports a checkpoint that cannot be trusted: too
// short, bad magic, CRC mismatch, undecodable payload, or internally
// inconsistent state. Callers should fall back to recomputing from the
// base graph rather than loading it.
var ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")

// ErrSnapshotVersion reports a structurally sound checkpoint written by
// an incompatible format version.
var ErrSnapshotVersion = errors.New("core: snapshot version mismatch")

// snapshotOptions are the Options fields that define execution
// semantics — what checkpoints store and compare. Instrumentation hooks
// (Metrics, Flight) are runtime wiring: gob cannot encode them and a
// restored engine keeps its own. Field names match Options so old
// checkpoints decode unchanged.
type snapshotOptions struct {
	Mode                   Mode
	MaxIterations          int
	Horizon                int
	DisableVerticalPruning bool
}

func toSnapshotOptions(o Options) snapshotOptions {
	return snapshotOptions{
		Mode:                   o.Mode,
		MaxIterations:          o.MaxIterations,
		Horizon:                o.Horizon,
		DisableVerticalPruning: o.DisableVerticalPruning,
	}
}

// engineState is the gob-serialized checkpoint. Value and aggregate
// types must be gob-encodable (true for all shipped algorithms: floats,
// float slices, exported structs).
type engineState[V, A any] struct {
	Options snapshotOptions

	Vertices int
	Edges    []graph.Edge

	Vals  []V
	Old   []V
	Agg   []A
	Hist  [][]A
	Level int
	Ran   bool
	Stats Stats
	// Unsent lists Engine.unsent's members (ModeNaive, pull programs):
	// without them a restored engine could not fold that frontier in.
	// Empty otherwise, and in checkpoints written before this field
	// existed.
	Unsent []VertexID

	// Generation is the published snapshot generation at checkpoint
	// time, so a restore resumes the generation counter instead of
	// restarting at 1 — replication parity (follower SnapshotAt(g) ==
	// leader SnapshotAt(g)) depends on generations surviving a
	// checkpoint-shipped re-seed. Zero in checkpoints written before
	// this field existed (gob leaves absent fields zero); ReadSnapshot
	// then falls back to the local counter.
	Generation uint64
}

// WriteSnapshot checkpoints the engine — graph structure, current
// values, running aggregates and the full dependency store — so a
// process restart can resume streaming without recomputing the initial
// run. The program itself is code, not state: the restoring side builds
// an engine with the same program and calls ReadSnapshot.
//
// The stream is framed with a magic/version header and a CRC32C
// trailer; ReadSnapshot verifies both.
func (e *Engine[V, A]) WriteSnapshot(w io.Writer) error {
	st := engineState[V, A]{
		Options:  toSnapshotOptions(e.opts),
		Vertices: e.g.NumVertices(),
		Edges:    e.g.Edges(nil),
		Vals:     e.vals,
		Old:      e.old,
		Agg:      e.agg,
		Level:    e.level,
		Ran:      e.ran,
		Stats:    e.stats,
	}
	if s := e.snap.Load(); s != nil {
		st.Generation = s.Generation
	}
	if e.unsent != nil {
		st.Unsent = e.unsent.Members(nil)
	}
	if e.hist != nil {
		st.Hist = e.hist.Export()
	}
	h := crc32.New(crcTable)
	mw := io.MultiWriter(w, h)
	if _, err := mw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], snapshotVersion)
	if _, err := mw.Write(ver[:]); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	if err := gob.NewEncoder(mw).Encode(&st); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("core: write snapshot trailer: %w", err)
	}
	return nil
}

// ReadSnapshot restores a checkpoint written by WriteSnapshot into this
// engine, replacing its graph and state. The engine must have been
// constructed with the same program and compatible options (mode,
// iteration budget and pruning settings are checked; a mismatch would
// silently corrupt refinement semantics otherwise).
//
// It consumes r to EOF. Truncated, corrupted or zero-length input fails
// with an error wrapping ErrSnapshotCorrupt; a well-formed snapshot
// from a different format version fails with ErrSnapshotVersion. In
// both cases the engine is left unmodified.
func (e *Engine[V, A]) ReadSnapshot(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrSnapshotCorrupt, err)
	}
	const header = len(snapshotMagic) + 4
	if len(data) < header+4 {
		return fmt.Errorf("%w: %d bytes is shorter than the minimal frame", ErrSnapshotCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, data[:len(snapshotMagic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("%w: CRC32C %08x, trailer says %08x", ErrSnapshotCorrupt, got, want)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapshotMagic):header]); v != snapshotVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	var st engineState[V, A]
	if err := gob.NewDecoder(bytes.NewReader(body[header:])).Decode(&st); err != nil {
		return fmt.Errorf("%w: decode: %v", ErrSnapshotCorrupt, err)
	}
	if st.Options != toSnapshotOptions(e.opts) {
		return fmt.Errorf("core: snapshot options %+v do not match engine options %+v", st.Options, toSnapshotOptions(e.opts))
	}
	g, err := graph.Build(st.Vertices, st.Edges)
	if err != nil {
		return fmt.Errorf("%w: rebuild snapshot graph: %v", ErrSnapshotCorrupt, err)
	}
	if len(st.Vals) != st.Vertices || len(st.Agg) != st.Vertices || len(st.Old) != st.Vertices {
		return fmt.Errorf("%w: arrays sized %d/%d/%d for %d vertices",
			ErrSnapshotCorrupt, len(st.Vals), len(st.Agg), len(st.Old), st.Vertices)
	}
	var unsent *bitset.Bitset
	if len(st.Unsent) > 0 {
		unsent = bitset.New(st.Vertices)
		for _, v := range st.Unsent {
			if int(v) >= st.Vertices {
				return fmt.Errorf("%w: unsent vertex %d of %d", ErrSnapshotCorrupt, v, st.Vertices)
			}
			unsent.Set(v)
		}
	}
	e.g = g
	e.vals = st.Vals
	e.old = st.Old
	e.agg = st.Agg
	e.level = st.Level
	e.unsent = unsent
	e.ran = st.Ran
	e.stats = st.Stats
	if e.tracking() {
		e.resetHistory()
		if st.Hist != nil {
			e.hist.Import(st.Hist)
			e.hist.Grow(st.Vertices)
		}
	}
	if st.Generation > 0 {
		e.publishGen(st.Generation)
	} else {
		e.Publish()
	}
	return nil
}
