package replica

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// DefaultHeartbeat is the idle-stream heartbeat interval: frequent
// enough that a follower's lag_seconds gauge stays honest and dead
// connections are discovered quickly, rare enough to be free.
const DefaultHeartbeat = 500 * time.Millisecond

// LogOptions configures a replication Log.
type LogOptions struct {
	// Retain bounds the number of records kept in memory; older records
	// fall below the floor and followers that need them get 410 (see
	// ErrLogCompacted). 0 keeps everything — the right default while a
	// record is ~32 bytes plus its edges and followers are expected to
	// stay close.
	Retain int
	// Heartbeat is the idle-stream heartbeat interval. Default
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// Logger receives stream lifecycle warnings; nil uses slog.Default().
	Logger *slog.Logger
	// CheckpointSeq, when non-nil, reports the sequence covered by the
	// leader's latest on-disk checkpoint (false when none exists yet).
	// Compaction refusals (410) include it so a follower — or the human
	// debugging one — can see whether a checkpoint re-seed can bridge
	// the gap. durable.CheckpointDir(dir).CheckpointSeq fits.
	CheckpointSeq func() (uint64, bool)
}

// Log is the leader-side replication source: an append-only, sequence-
// indexed store of encoded WAL frames with an HTTP streaming handler.
// It deliberately does not read the WAL file — checkpoints truncate
// that file, while replication needs the record sequence to survive
// compaction for as long as a follower might ask for it. Instead the
// durable engine feeds it through Options.OnRecord (which also replays
// the on-disk suffix at startup), so the log's floor is exactly the
// leader's checkpoint at open time.
//
// Append is called from the single-writer apply loop; everything else
// may run concurrently.
type Log struct {
	hb      time.Duration
	retain  int
	logger  *slog.Logger
	ckptSeq func() (uint64, bool)

	mu     sync.Mutex
	frames [][]byte // frames[i] holds seq first+i
	first  uint64   // seq of frames[0]; meaningful when len(frames) > 0
	floor  uint64   // records ≤ floor are unavailable
	last   uint64   // seq of the newest record (0 before any)
	notify chan struct{}
	closed bool
}

// NewLog returns an empty Log.
func NewLog(opts LogOptions) *Log {
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Log{hb: hb, retain: opts.Retain, logger: logger,
		ckptSeq: opts.CheckpointSeq, notify: make(chan struct{})}
}

// SetFloor declares every record ≤ seq unavailable — the leader's
// checkpoint covers them. Call once after durable.Open, with
// Recovery().SnapshotSeq, when the engine recovered from a checkpoint;
// records replayed from the WAL suffix arrive through Append as usual.
func (l *Log) SetFloor(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.floor {
		l.floor = seq
	}
	if l.last < seq {
		// Everything stored is now below the floor; keeping it would
		// leave a hole between it and the next record appended.
		l.last = seq
		l.frames = nil
	}
}

// Append stores one journaled record. Its signature matches
// durable.Options.OnRecord. Records must arrive in sequence order;
// duplicates (possible when a recovery replay and a live append race at
// startup) are ignored, and a gap is logged and dropped rather than
// stored — a hole would make every downstream follower diverge, while
// dropping just freezes the stream at the last contiguous record.
func (l *Log) Append(rec wal.Record) {
	frame := wal.EncodeFrame(rec.Seq, rec.Batch)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return
	case l.last == 0 && len(l.frames) == 0 && l.floor == 0:
		l.first = rec.Seq
		l.floor = rec.Seq - 1
	case rec.Seq <= l.last:
		return // duplicate
	case rec.Seq != l.last+1:
		l.logger.Warn("replica: sequence gap in log feed; record dropped",
			"got", rec.Seq, "want", l.last+1)
		return
	case len(l.frames) == 0:
		l.first = rec.Seq
	}
	l.frames = append(l.frames, frame)
	l.last = rec.Seq
	if l.retain > 0 && len(l.frames) > l.retain {
		drop := len(l.frames) - l.retain
		l.frames = append([][]byte(nil), l.frames[drop:]...)
		l.first += uint64(drop)
		l.floor = l.first - 1
	}
	close(l.notify)
	l.notify = make(chan struct{})
}

// Floor returns the highest unavailable sequence number (0 when the log
// reaches back to the stream's beginning).
func (l *Log) Floor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// Last returns the newest stored sequence number (0 before any).
func (l *Log) Last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Len returns the number of records currently retained.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// Close wakes and terminates every open stream. Appends after Close are
// dropped.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.notify)
	l.notify = make(chan struct{})
}

// snapshotFrom returns the frames in (from, last], plus the current
// last/closed state and the channel that signals the next append.
func (l *Log) snapshotFrom(from uint64) (frames [][]byte, last uint64, closed bool, notify chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next := from + 1; next >= l.first && len(l.frames) > 0 && next <= l.last {
		frames = l.frames[next-l.first:]
	}
	return frames, l.last, l.closed, l.notify
}

// Handler returns the streaming endpoint, conventionally mounted at
// GET /v1/wal. The from query parameter is the client's last applied
// sequence number (0 for a fresh follower); the response streams every
// record after it, then stays open, interleaving new records with
// heartbeats, until the client disconnects, the log closes, or retention
// trims the record it would send next (the client's resume gets 410).
// A from below the log floor gets 410 Gone with a JSON body naming the
// floor.
func (l *Log) Handler() http.Handler {
	return http.HandlerFunc(l.serveHTTP)
}

func (l *Log) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method not allowed", "")
		return
	}
	from := uint64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed from parameter", err.Error())
			return
		}
		from = v
	}
	l.mu.Lock()
	floor, last := l.floor, l.last
	l.mu.Unlock()
	if from < floor {
		resp := CompactedResponse{
			Error: ErrLogCompacted.Error(),
			Detail: fmt.Sprintf("requested resume after seq %d, log floor is %d; re-seed from a checkpoint",
				from, floor),
			Floor: floor,
		}
		if l.ckptSeq != nil {
			resp.CheckpointSeq, resp.CheckpointAvailable = l.ckptSeq()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(resp)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Graphbolt-Leader-Seq", strconv.FormatUint(last, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(appendHello(nil, last)); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}

	hb := time.NewTicker(l.hb)
	defer hb.Stop()
	next := from
	for {
		frames, last, closed, notify := l.snapshotFrom(next)
		for _, frame := range frames {
			if _, err := w.Write(appendRecord(nil, frame)); err != nil {
				return
			}
			next++
		}
		if len(frames) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue // re-check: more may have arrived while writing
		}
		if closed || next < l.Floor() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		case <-hb.C:
			if _, err := w.Write(appendHeartbeat(nil, last)); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// CompactedResponse is the 410 body a compacted stream request gets:
// the standard error/detail pair extended with the log floor and
// whether (and through which sequence) a checkpoint is available for
// re-seeding. Followers act on the status code alone; the structured
// fields are the operator-facing diagnosis of why the stream cannot
// resume and what will bridge the gap.
type CompactedResponse struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
	// Floor is the highest unavailable sequence number: the stream can
	// only resume from a position > Floor.
	Floor uint64 `json:"floor"`
	// CheckpointAvailable reports whether the leader has a checkpoint to
	// re-seed from (served at /v1/checkpoint); CheckpointSeq is the
	// sequence it covers when so.
	CheckpointAvailable bool   `json:"checkpoint_available"`
	CheckpointSeq       uint64 `json:"checkpoint_seq,omitempty"`
}

// httpError writes a JSON error body, the shape shared by every
// endpoint in this package: {"error": ..., "detail": ...}.
func httpError(w http.ResponseWriter, code int, msg, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error  string `json:"error"`
		Detail string `json:"detail,omitempty"`
	}{Error: msg, Detail: detail})
}
