// Package wal implements a crash-safe write-ahead log for graph
// mutation batches. A durable engine journals every batch here before
// mutating in-memory state; after a crash, recovery replays the log on
// top of the last checkpoint.
//
// On-disk format (all integers little-endian):
//
//	file   = magic ("GBWAL001") record*
//	record = u32 length | u32 crc32c(body) | body
//	body   = u64 seq | batch payload (see encode.go)
//
// Each record is written with a single Write call, so a crash leaves at
// most one torn record at the tail. Open scans the log, keeps the
// longest valid prefix, and truncates the rest: a torn or bit-flipped
// record ends recovery at the last valid record — it is never applied —
// and the file is repaired in place so appends continue from there.
//
// Records carry an application-assigned sequence number so a checkpoint
// taken at sequence S can ignore leftover records ≤ S if a crash hits
// between writing the checkpoint and truncating the log.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/obs"
)

var fileMagic = [8]byte{'G', 'B', 'W', 'A', 'L', '0', '0', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-record length+CRC prefix.
const frameHeaderSize = 8

// maxRecordBytes bounds a record body so a corrupted length prefix
// cannot force a multi-gigabyte allocation during recovery.
const maxRecordBytes = 1 << 30

// ErrNotWAL reports a file whose header is not a WAL of this format —
// unlike a torn tail, this is not repairable by truncation and likely
// means a misconfigured path.
var ErrNotWAL = errors.New("wal: not a write-ahead log (bad file magic)")

// ErrDamaged reports an append attempted on a log whose tail is in an
// unknown state after a failed write or fsync. The log refuses further
// appends until Repair truncates it back to the last consistent length;
// a damaged log can still be scanned, reset, or closed.
var ErrDamaged = errors.New("wal: journal damaged, repair required")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs after every append: no acknowledged batch is
	// ever lost. The default.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.Interval; a crash can
	// lose the batches acknowledged since the last sync, but recovery
	// still truncates cleanly to a valid prefix.
	SyncInterval
	// SyncNone never fsyncs explicitly (the OS flushes on its own
	// schedule). Fastest; durability limited to clean shutdowns.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "every"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// Options configures a WAL.
type Options struct {
	// Sync selects the durability/latency trade-off. Default SyncEveryBatch.
	Sync SyncPolicy
	// Interval is the maximum time between fsyncs under SyncInterval.
	// Default 100ms.
	Interval time.Duration
	// Metrics, when non-nil, receives journal instrumentation (append
	// counts and bytes, fsync latency, recovery results). Nil means
	// instrumentation is off.
	Metrics *obs.Registry
	// Flight, when non-nil, receives fsync/fsync-failed lifecycle events
	// with per-call latency, stamped with whatever trace the serve loop
	// has marked active. Nil means no flight events.
	Flight *flight.Recorder
	// Hooks are fault-injection points for tests; zero means none.
	Hooks Hooks
}

// Hooks let tests interpose on the log's I/O without reaching into its
// internals. Production code leaves them zero.
type Hooks struct {
	// WrapWriter, when non-nil, wraps the writer used for appends at
	// Open (e.g. a faultio.Writer). The header write and truncations go
	// to the file directly.
	WrapWriter func(io.Writer) io.Writer
	// BeforeSync, when non-nil, runs before every fsync; a non-nil
	// result fails the sync with that error (e.g. faultio.Fsync.Check).
	BeforeSync func() error
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Record is one journaled mutation batch.
type Record struct {
	// Seq is the application-assigned, strictly increasing sequence
	// number (batch index since the stream began).
	Seq uint64
	// Batch is the journaled mutation set.
	Batch graph.Batch
}

// RecoveryInfo describes what Open found in an existing log.
type RecoveryInfo struct {
	// Records is the number of valid records recovered.
	Records int
	// Truncated reports that invalid data (a torn tail or a corrupt
	// record) followed the valid prefix and was cut off.
	Truncated bool
	// DroppedBytes counts the bytes discarded by that truncation.
	DroppedBytes int64
}

// WAL is a file-backed write-ahead log. Not safe for concurrent use;
// the durable engine serializes access the same way the core engine
// serializes ApplyBatch. The one goroutine of its own, AppendAsync's
// fsync, owns the log until its wait returns.
type WAL struct {
	f    *os.File
	w    io.Writer // == f in production; tests substitute a fault injector
	opts Options

	size      int64 // current valid file length
	lastFrame int64 // length of the most recent append's frame, for Unappend
	lastSync  time.Time
	recovered []Record
	info      RecoveryInfo
	met       walMetrics

	// Damage tracking: after a failed write, truncate, or fsync the
	// on-disk tail is in an unknown state. good remembers the last
	// length at which file contents, writer position, and durability all
	// agreed; Repair truncates back to it. A failed-but-fully-written
	// append also rolls back to good — the caller never acknowledged the
	// batch and will re-append it, so leaving the record would replay it
	// twice.
	damaged bool
	good    int64
}

// walMetrics holds the journal's metric handles; the zero value (nil
// handles) is the instrumentation-off state.
type walMetrics struct {
	appends          *obs.Counter
	appendBytes      *obs.Counter
	fsync            *obs.Histogram
	size             *obs.Gauge
	recoveredRecords *obs.Counter
	truncatedBytes   *obs.Counter
}

func newWALMetrics(r *obs.Registry) walMetrics {
	if r == nil {
		return walMetrics{}
	}
	return walMetrics{
		appends: r.Counter("graphbolt_wal_appends_total",
			"Batches journaled to the write-ahead log."),
		appendBytes: r.Counter("graphbolt_wal_append_bytes_total",
			"Bytes appended to the write-ahead log."),
		fsync: r.Histogram("graphbolt_wal_fsync_seconds",
			"Write-ahead log fsync latency.", obs.DefTimeBuckets),
		size: r.Gauge("graphbolt_wal_size_bytes",
			"Current write-ahead log length."),
		recoveredRecords: r.Counter("graphbolt_wal_recovered_records_total",
			"Valid records recovered from existing logs at open."),
		truncatedBytes: r.Counter("graphbolt_wal_truncated_bytes_total",
			"Bytes dropped when truncating torn or corrupt log tails."),
	}
}

// RegisterMetrics pre-creates the WAL metric set in r so the exposition
// endpoint shows every series (at zero) before a log is opened.
// Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newWALMetrics(r)
}

// Open opens (creating if absent) the log at path, scans it, truncates
// any invalid suffix, and positions for appending. The records of the
// valid prefix are available from Recovered until the first Append.
func Open(path string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	w := &WAL{f: f, w: f, opts: opts, lastSync: time.Now(), met: newWALMetrics(opts.Metrics)}
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if wrap := opts.Hooks.WrapWriter; wrap != nil {
		w.w = wrap(f)
	}
	w.good = w.size
	w.met.recoveredRecords.Add(int64(w.info.Records))
	w.met.truncatedBytes.Add(w.info.DroppedBytes)
	w.met.size.Set(float64(w.size))
	return w, nil
}

// recover scans the file, truncates the invalid suffix, and seeks to
// the end of the valid prefix.
func (w *WAL) recover() error {
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	if fi.Size() == 0 {
		// Fresh log: write the header.
		if _, err := w.f.Write(fileMagic[:]); err != nil {
			return fmt.Errorf("wal: write header: %w", err)
		}
		w.size = int64(len(fileMagic))
		return nil
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	records, valid, info, err := Scan(w.f)
	if err != nil {
		return err
	}
	info.DroppedBytes = fi.Size() - valid
	info.Truncated = info.DroppedBytes > 0
	w.recovered, w.info, w.size = records, info, valid
	if info.Truncated {
		if err := w.f.Truncate(valid); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := w.f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	return nil
}

// Scan reads a WAL stream and returns the records of the longest valid
// prefix, the byte length of that prefix (including the file header),
// and what was found. Frames are parsed by FrameReader.Next; scanning
// stops — without error — at the first torn or corrupt record. Only
// ErrNotWAL (wrong header) and read failures are errors.
func Scan(r io.Reader) ([]Record, int64, RecoveryInfo, error) {
	var info RecoveryInfo
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			// Empty stream: valid, no records, header still to be written.
			return nil, 0, info, nil
		}
		return nil, 0, info, ErrNotWAL
	}
	if hdr != fileMagic {
		return nil, 0, info, ErrNotWAL
	}
	cr := &countingReader{r: r}
	fr := NewFrameReader(cr)
	var records []Record
	valid := int64(len(fileMagic))
	for {
		rec, err := fr.Next()
		if err != nil {
			break // clean EOF or the first bad frame: the prefix ends here
		}
		records = append(records, rec)
		valid = int64(len(fileMagic)) + cr.n
		info.Records++
	}
	if cr.err != nil {
		return nil, 0, info, fmt.Errorf("wal: scan: %w", cr.err)
	}
	return records, valid, info, nil
}

// countingReader counts the bytes read through it and keeps the first
// read failure other than io.EOF, which a FrameReader would otherwise
// report as a torn frame. FrameReader reads no further than the current
// frame, so after each Next the count is the length of the frames
// consumed.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

// Recovered returns the records salvaged by Open, in append order.
// The slice is released on the first Append; copy it to keep it.
func (w *WAL) Recovered() []Record { return w.recovered }

// Recovery reports what Open found.
func (w *WAL) Recovery() RecoveryInfo { return w.info }

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 { return w.size }

// Append journals one batch under the given sequence number and applies
// the sync policy: AppendAsync followed by its wait.
func (w *WAL) Append(seq uint64, b graph.Batch) error {
	wait, err := w.AppendAsync(seq, b)
	if err != nil {
		return err
	}
	return wait()
}

// AppendAsync writes one batch's frame under the given sequence number
// with a single Write call and, when the sync policy calls for an fsync,
// starts it on its own goroutine. wait returns that fsync's result (nil
// at once when none was due); the record is durable only once wait
// returns nil. The caller may do unrelated work before calling wait but
// must call it before any other method of the log: until then the fsync
// goroutine owns the log.
//
// Any failure — write error, short write, failed fsync — marks the log
// damaged: the on-disk tail is untrustworthy (possibly torn, possibly
// holding an unacknowledged record that a retry would duplicate), so
// further appends fail with ErrDamaged until Repair truncates back to
// the last consistent length.
func (w *WAL) AppendAsync(seq uint64, b graph.Batch) (wait func() error, err error) {
	if w.damaged {
		return nil, fmt.Errorf("wal: append seq %d: %w", seq, ErrDamaged)
	}
	w.recovered = nil
	start := w.size
	frame := EncodeFrame(seq, b)
	n, err := w.w.Write(frame)
	w.size += int64(n)
	if err != nil {
		w.markDamaged(start)
		return nil, fmt.Errorf("wal: append seq %d: %w", seq, err)
	}
	if n < len(frame) {
		w.markDamaged(start)
		return nil, fmt.Errorf("wal: append seq %d: short write (%d of %d bytes)", seq, n, len(frame))
	}
	w.lastFrame = int64(len(frame))
	w.met.appends.Inc()
	w.met.appendBytes.Add(int64(n))
	w.met.size.Set(float64(w.size))
	due := w.opts.Sync == SyncEveryBatch ||
		w.opts.Sync == SyncInterval && time.Since(w.lastSync) >= w.opts.Interval
	if !due {
		w.good = w.size
		return noWait, nil
	}
	done := make(chan error, 1)
	go func() { done <- w.Sync() }()
	return sync.OnceValue(func() error {
		if err := <-done; err != nil {
			w.markDamaged(start)
			return err
		}
		w.good = w.size
		return nil
	}), nil
}

func noWait() error { return nil }

// markDamaged latches the damaged state with good as the last length
// at which the log was known consistent.
func (w *WAL) markDamaged(good int64) {
	w.damaged, w.good, w.lastFrame = true, good, 0
}

// Repair truncates a damaged log back to its last consistent length and
// re-syncs, after which appends are accepted again. Repairing an
// undamaged log is a no-op. If the truncate, seek, or fsync itself
// fails the log stays damaged and Repair can be retried.
func (w *WAL) Repair() error {
	if !w.damaged {
		return nil
	}
	if err := w.f.Truncate(w.good); err != nil {
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	if _, err := w.f.Seek(w.good, io.SeekStart); err != nil {
		return fmt.Errorf("wal: repair seek: %w", err)
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	w.size = w.good
	w.damaged = false
	w.met.size.Set(float64(w.size))
	return nil
}

// Unappend removes the record most recently written by Append — used
// when the in-memory apply that followed the journal write failed, so
// recovery does not replay a batch the engine could not process. Valid
// only immediately after a successful Append, or an AppendAsync whose
// wait returned nil.
func (w *WAL) Unappend() error {
	if w.lastFrame == 0 {
		return fmt.Errorf("wal: nothing to unappend")
	}
	w.size -= w.lastFrame
	w.lastFrame = 0
	w.met.size.Set(float64(w.size))
	if err := w.f.Truncate(w.size); err != nil {
		w.markDamaged(w.size)
		return fmt.Errorf("wal: unappend: %w", err)
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.markDamaged(w.size)
		return fmt.Errorf("wal: unappend seek: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.markDamaged(w.size)
		return err
	}
	w.good = w.size
	return nil
}

// Records scans the log's current contents from the start and returns
// the records of its valid prefix, without moving the append position.
func (w *WAL) Records() ([]Record, error) {
	recs, _, _, err := Scan(io.NewSectionReader(w.f, 0, w.size))
	return recs, err
}

// Sync flushes the log to stable storage.
func (w *WAL) Sync() error {
	var start time.Time
	if w.met.fsync != nil || w.opts.Flight != nil {
		start = time.Now()
	}
	if hook := w.opts.Hooks.BeforeSync; hook != nil {
		if err := hook(); err != nil {
			w.opts.Flight.Fsync(time.Since(start), true)
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		w.opts.Flight.Fsync(time.Since(start), true)
		return fmt.Errorf("wal: sync: %w", err)
	}
	if w.met.fsync != nil {
		w.met.fsync.Observe(time.Since(start).Seconds())
	}
	w.opts.Flight.Fsync(time.Since(start), false)
	w.lastSync = time.Now()
	return nil
}

// Reset empties the log after a checkpoint has made its records
// redundant, keeping the file header. A successful Reset also clears
// any damage: truncating to the header is the most thorough repair
// there is.
func (w *WAL) Reset() error {
	w.recovered, w.lastFrame = nil, 0
	w.size = int64(len(fileMagic))
	w.met.size.Set(float64(w.size))
	if err := w.f.Truncate(w.size); err != nil {
		w.markDamaged(w.size)
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.markDamaged(w.size)
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.markDamaged(w.size)
		return err
	}
	w.damaged, w.good = false, w.size
	return nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: close sync: %w", err)
	}
	return w.f.Close()
}
