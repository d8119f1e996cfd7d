package flight

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func discard() *slog.Logger { return slog.New(slog.DiscardHandler) }

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(KindAdmitted, 1, 2, 3)
	r.Phase("x", time.Now(), time.Millisecond)
	r.BeginApply(1)
	if d := r.EndApply(); d != 0 {
		t.Fatalf("nil EndApply = %v", d)
	}
	r.Journal(1, time.Millisecond, false)
	r.Fsync(time.Millisecond, true)
	if r.Snapshot() != nil || r.Dump("x", 0) != nil {
		t.Fatal("nil recorder produced data")
	}
	if r.Events() != 0 || r.Dropped() != 0 || r.Dumps() != 0 || r.Depth() != 0 {
		t.Fatal("nil counters nonzero")
	}
	if r.ActiveTrace() != 0 {
		t.Fatal("nil active trace nonzero")
	}
	if _, _, ok := r.OpenApply(); ok {
		t.Fatal("nil recorder reports an open apply")
	}
	if r.LastDump() != nil {
		t.Fatal("nil LastDump nonzero")
	}
}

func TestRecordAndSnapshotOrdered(t *testing.T) {
	r := New(Options{Depth: 64, Logger: discard()})
	for i := 1; i <= 10; i++ {
		r.Record(KindEnqueued, uint64(i), int64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("snapshot has %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Trace != uint64(i+1) || e.Kind != KindEnqueued || e.A != int64(i+1) {
			t.Fatalf("event %d corrupted: %+v", i, e)
		}
		if e.At == 0 {
			t.Fatalf("event %d missing timestamp", i)
		}
	}
	if r.Events() != 10 || r.Dropped() != 0 {
		t.Fatalf("events=%d dropped=%d", r.Events(), r.Dropped())
	}
}

func TestDepthRoundsToPowerOfTwo(t *testing.T) {
	for in, want := range map[int]int{1: 1, 2: 2, 3: 4, 100: 128, 4096: 4096, 0: DefaultDepth} {
		r := New(Options{Depth: in, Logger: discard()})
		if r.Depth() != want {
			t.Fatalf("Depth(%d) = %d, want %d", in, r.Depth(), want)
		}
	}
}

// ringShapes are the rings the torture tests run on: a roomy one, and a
// two-slot ring under four writers, where every write laps another.
var ringShapes = []struct {
	name           string
	depth, writers int
}{
	{"depth64x8", 64, 8},
	{"depth2x4", 2, 4},
}

// TestRingOverwriteAccounting drives the ring far past capacity from
// many goroutines and checks: dropped counts exactly the overwritten
// entries, no event in the final snapshot is torn (every field encodes
// the same writer), and the snapshot holds exactly the newest window.
func TestRingOverwriteAccounting(t *testing.T) {
	for _, shape := range ringShapes {
		t.Run(shape.name, func(t *testing.T) {
			const perWriter = 1000
			depth := uint64(shape.depth)
			reg := obs.NewRegistry()
			r := New(Options{Depth: shape.depth, Logger: discard(), Metrics: reg})

			var wg sync.WaitGroup
			for w := 0; w < shape.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						// Encode the writer+iteration into every payload field so a
						// torn slot (fields from different writers) is detectable.
						tag := int64(w*perWriter + i)
						r.Record(KindEnqueued, uint64(tag), tag, tag)
					}
				}(w)
			}
			wg.Wait()

			total := uint64(shape.writers * perWriter)
			if r.Events() != total {
				t.Fatalf("events = %d, want %d", r.Events(), total)
			}
			if want := total - depth; r.Dropped() != want {
				t.Fatalf("dropped = %d, want %d (total %d - depth %d)", r.Dropped(), want, total, depth)
			}
			if got := reg.Counter(MetricDropped, "").Value(); got != int64(total-depth) {
				t.Fatalf("dropped counter = %d, want %d", got, total-depth)
			}
			if d := r.Dump("test", 0); d.Dropped != total-depth {
				t.Fatalf("dump dropped = %d, want %d", d.Dropped, total-depth)
			}

			evs := r.Snapshot()
			if uint64(len(evs)) != depth {
				t.Fatalf("final snapshot has %d events, want %d", len(evs), depth)
			}
			for i, e := range evs {
				if int64(e.Trace) != e.A || e.A != e.B {
					t.Fatalf("torn event: trace=%d a=%d b=%d", e.Trace, e.A, e.B)
				}
				if want := total - depth + uint64(i); e.Seq != want {
					t.Fatalf("event %d has seq %d, want %d (newest window, in order)", i, e.Seq, want)
				}
			}
		})
	}
}

// TestSnapshotConsistentMidWrite dumps continuously while writers
// hammer the ring: every returned event must be internally consistent
// (never a mix of two writers' fields).
func TestSnapshotConsistentMidWrite(t *testing.T) {
	for _, shape := range ringShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := New(Options{Depth: shape.depth, Logger: discard()})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < shape.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var i int64
					for {
						select {
						case <-stop:
							return
						default:
						}
						tag := int64(w)<<32 | i
						r.Record(Kind(1+i%int64(KindPhase)), uint64(tag), tag, tag)
						i++
					}
				}(w)
			}
			deadline := time.Now().Add(100 * time.Millisecond)
			for time.Now().Before(deadline) {
				for _, e := range r.Snapshot() {
					if int64(e.Trace) != e.A || e.A != e.B {
						t.Errorf("torn event in mid-write snapshot: trace=%d a=%d b=%d", e.Trace, e.A, e.B)
					}
					if e.Kind < KindAdmitted || e.Kind > KindPhase {
						t.Errorf("invalid kind %d in snapshot", e.Kind)
					}
				}
				if t.Failed() {
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestDumpsAndLastDump: back-to-back dumps are both taken, and LastDump
// is the newer one.
func TestDumpsAndLastDump(t *testing.T) {
	r := New(Options{Depth: 16, Logger: discard()})
	r.Record(KindApplied, 7, 1, 2)

	d1 := r.Dump("first", 7)
	d2 := r.Dump("second", 0)
	if d1 == nil || d2 == nil {
		t.Fatal("Dump returned nil")
	}
	if got := r.LastDump(); got != d2 {
		t.Fatalf("LastDump = %p, want %p", got, d2)
	}
	if r.Dumps() != 2 {
		t.Fatalf("dumps = %d, want 2", r.Dumps())
	}
	if d1.Focus != 7 || len(d1.Events) != 1 || d1.Events[0].Kind != KindApplied {
		t.Fatalf("dump content: %+v", d1)
	}
}

func TestDumpLogsFocusTimeline(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	r := New(Options{Depth: 16, Logger: logger})
	r.Record(KindEnqueued, 42, 1, 0)
	r.Record(KindApplied, 42, int64(3*time.Millisecond), 10)
	r.Dump("test reason", 42)
	out := buf.String()
	if !strings.Contains(out, "flight dump") || !strings.Contains(out, "trace=42") {
		t.Fatalf("dump log: %q", out)
	}
	if !strings.Contains(out, "enqueued") || !strings.Contains(out, "applied") {
		t.Fatalf("dump log missing timeline events: %q", out)
	}
}

func TestActiveTraceCorrelation(t *testing.T) {
	r := New(Options{Depth: 32, Logger: discard()})
	r.BeginApply(99)
	if r.ActiveTrace() != 99 {
		t.Fatalf("active = %d", r.ActiveTrace())
	}
	r.Journal(5, 2*time.Millisecond, false)
	r.Fsync(time.Millisecond, false)
	r.Journal(6, 3*time.Millisecond, true) // failed: not charged to the phase
	if got := r.EndApply(); got != 2*time.Millisecond {
		t.Fatalf("journal phase = %v, want 2ms (failed appends not charged)", got)
	}
	if r.ActiveTrace() != 0 {
		t.Fatal("active trace not cleared")
	}
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Trace != 99 {
			t.Fatalf("event %v not stamped with active trace: %d", e.Kind, e.Trace)
		}
	}
	if evs[0].Kind != KindJournaled || evs[0].B != 5 {
		t.Fatalf("journal event: %+v", evs[0])
	}
	if evs[1].Kind != KindFsync {
		t.Fatalf("fsync event: %+v", evs[1])
	}
	if evs[2].Kind != KindJournalFailed || evs[2].B != 6 {
		t.Fatalf("journal-failed event: %+v", evs[2])
	}
}

// TestPhaseSinkInterning: a KindPhase event carries its phase name with
// it (there is no intern table to look it up in), and neither Record nor
// Phase allocates.
func TestPhaseSinkInterning(t *testing.T) {
	r := New(Options{Depth: 32, Logger: discard()})
	r.BeginApply(5)
	start := time.Now().Add(-time.Second)
	r.Phase("refine", start, 10*time.Millisecond)
	r.Phase("hybrid", start, 20*time.Millisecond)
	r.EndApply()
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("%d events", len(evs))
	}
	e := evs[0]
	if e.Kind != KindPhase || e.Trace != 5 || e.A != int64(10*time.Millisecond) || e.B != 0 {
		t.Fatalf("phase event: %+v", e)
	}
	if e.At != start.UnixNano() {
		t.Fatalf("phase event At = %d, want span start %d", e.At, start.UnixNano())
	}
	if !strings.Contains(e.Note(), "name=refine") || !strings.Contains(evs[1].Note(), "name=hybrid") {
		t.Fatalf("phase notes: %q, %q", e.Note(), evs[1].Note())
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Record(KindEnqueued, 1, 2, 3)
		r.Phase("refine", start, time.Millisecond)
	}); n != 0 {
		t.Fatalf("Record+Phase allocate %v times per call, want 0", n)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindAdmitted; k <= KindPhase; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseKind("nope"); ok {
		t.Fatal("ParseKind accepted garbage")
	}
	if Kind(0).String() == "" || Kind(200).String() == "" {
		t.Fatal("out-of-range kinds must still render")
	}
}

func TestEventCounterMetric(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Options{Depth: 8, Logger: discard(), Metrics: reg})
	r.Record(KindAdmitted, 1, 0, 0)
	r.Record(KindRejected, 2, 0, 0)
	if got := reg.Counter(MetricEvents, "").Value(); got != 2 {
		t.Fatalf("events counter = %d", got)
	}
	// RegisterMetrics pre-creates all three series.
	reg2 := obs.NewRegistry()
	RegisterMetrics(reg2)
	snap := reg2.Snapshot()
	for _, name := range []string{MetricEvents, MetricDropped, MetricDumps} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("metric %s not pre-registered", name)
		}
	}
}
