package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/faultio"
	"repro/internal/graph"
)

func testBatches() []graph.Batch {
	return []graph.Batch{
		{Add: []graph.Edge{{From: 0, To: 1, Weight: 1.5}, {From: 2, To: 3, Weight: -2}}},
		{Del: []graph.Edge{{From: 0, To: 1}}}, // deletion-only
		{},                                    // empty no-op tick
		{
			Add: []graph.Edge{{From: 7, To: 7, Weight: 0.25}},
			Del: []graph.Edge{{From: 2, To: 3}, {From: 9, To: 4}},
		},
	}
}

func openAppend(t *testing.T, path string, batches []graph.Batch) {
	t.Helper()
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if err := w.Append(uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func recordsEqual(t *testing.T, got []Record, want []graph.Batch, firstSeq uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Seq != firstSeq+uint64(i) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, firstSeq+uint64(i))
		}
		if !reflect.DeepEqual(r.Batch.Add, want[i].Add) && !(len(r.Batch.Add) == 0 && len(want[i].Add) == 0) {
			t.Errorf("record %d adds = %v, want %v", i, r.Batch.Add, want[i].Add)
		}
		if !reflect.DeepEqual(r.Batch.Del, want[i].Del) && !(len(r.Batch.Del) == 0 && len(want[i].Del) == 0) {
			t.Errorf("record %d dels = %v, want %v", i, r.Batch.Del, want[i].Del)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	batches := testBatches()
	openAppend(t, path, batches)

	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recordsEqual(t, w.Recovered(), batches, 1)
	if info := w.Recovery(); info.Truncated || info.Records != len(batches) {
		t.Fatalf("recovery info %+v after clean shutdown", info)
	}
	// Appends continue after recovery.
	if err := w.Append(uint64(len(batches)+1), graph.Batch{Add: []graph.Edge{{From: 1, To: 2, Weight: 3}}}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	batches := testBatches()
	openAppend(t, path, batches)

	// Crash mid-append: route the next record through a writer that dies
	// partway through the frame, leaving a torn tail like a power cut.
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.w = faultio.NewWriter(w.f).FailAfter(5, nil)
	err = w.Append(uint64(len(batches)+1), graph.Batch{Add: []graph.Edge{{From: 5, To: 6, Weight: 1}}})
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append through failing writer: %v", err)
	}
	w.f.Close() // simulate the crash: no Close bookkeeping

	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recordsEqual(t, reopened.Recovered(), batches, 1)
	info := reopened.Recovery()
	if !info.Truncated || info.DroppedBytes != 5 {
		t.Fatalf("recovery info %+v, want truncation of the 5 torn bytes", info)
	}
	// The file must be repaired in place: a third open sees a clean log.
	reopened.Close()
	again, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Recovery().Truncated {
		t.Fatal("repair did not persist")
	}
}

func TestBitFlippedRecordStopsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	batches := testBatches()
	openAppend(t, path, batches)

	// Rewrite the whole log through a bit-flipping writer, corrupting one
	// byte inside the second record's body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 8 header + record1 + record2... find record 2's body start.
	rec1Len := int64(8 + 8 + recordBodyLen(batches[0]))
	flipAt := 8 + rec1Len + frameHeaderSize + 3 // a few bytes into record 2's body
	tmp, err := os.Create(path + ".flipped")
	if err != nil {
		t.Fatal(err)
	}
	fw := faultio.NewWriter(tmp).FlipBit(flipAt, 2)
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	tmp.Close()

	w, err := Open(path+".flipped", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Recovery must stop at the last valid record before the corruption
	// and must not surface the corrupt batch or anything after it.
	recordsEqual(t, w.Recovered(), batches[:1], 1)
	if info := w.Recovery(); !info.Truncated {
		t.Fatalf("recovery info %+v, want truncation", info)
	}
}

// recordBodyLen mirrors the frame layout for test offset arithmetic:
// body = u64 seq + batch payload; the frame adds frameHeaderSize.
func recordBodyLen(b graph.Batch) int {
	return len(appendBatch(nil, b))
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	openAppend(t, path, testBatches())
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Appends after Reset land at the file head.
	if err := w.Append(42, graph.Batch{Add: []graph.Edge{{From: 1, To: 0, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs := reopened.Recovered()
	if len(recs) != 1 || recs[0].Seq != 42 {
		t.Fatalf("after reset+append, recovered %+v", recs)
	}
}

func TestUnappendRemovesLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, testBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatches()[3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Unappend(); err != nil {
		t.Fatal(err)
	}
	// Unappend is single-shot.
	if err := w.Unappend(); err == nil {
		t.Fatal("double Unappend succeeded")
	}
	w.Close()

	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs := reopened.Recovered()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("after unappend, recovered %+v", recs)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("err = %v, want ErrNotWAL", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncEveryBatch, SyncInterval, SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := Open(path, Options{Sync: p, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := w.Append(uint64(i+1), graph.Batch{Add: []graph.Edge{{From: 0, To: 1, Weight: 1}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(path, Options{Sync: p})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := len(reopened.Recovered()); got != 10 {
				t.Fatalf("recovered %d records, want 10", got)
			}
		})
	}
}

// TestShortWriteDamagesAndRepairs drives the degraded-mode contract
// end to end through the public hooks: a torn append latches ErrDamaged,
// Repair truncates back to consistency, and the retried record is the
// only thing recovery sees.
func TestShortWriteDamagesAndRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	openAppend(t, path, testBatches()[:1])

	var inj *faultio.Writer
	w, err := Open(path, Options{Hooks: Hooks{
		WrapWriter: func(under io.Writer) io.Writer {
			inj = faultio.NewWriter(under)
			return inj
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if w.damaged {
		t.Fatal("fresh log reports damage")
	}

	inj.ShortNext(3, nil)
	if err := w.Append(2, testBatches()[3]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("torn append: %v", err)
	}
	if !w.damaged {
		t.Fatal("torn append did not damage the log")
	}
	// Damaged log fails fast without touching the file.
	if err := w.Append(2, testBatches()[3]); !errors.Is(err, ErrDamaged) {
		t.Fatalf("append on damaged log: %v, want ErrDamaged", err)
	}

	if err := w.Repair(); err != nil {
		t.Fatal(err)
	}
	if w.damaged {
		t.Fatal("still damaged after Repair")
	}
	if err := w.Append(2, testBatches()[3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recordsEqual(t, reopened.Recovered(), []graph.Batch{testBatches()[0], testBatches()[3]}, 1)
	if reopened.Recovery().Truncated {
		t.Fatal("repair left a torn tail for recovery to clean up")
	}
}

// TestFsyncFailureRollsBackAppend pins the duplicate-replay hazard: a
// record fully written but whose fsync failed was never acknowledged,
// so Repair must drop it — the caller's retry re-appends it, and
// recovery must see the sequence exactly once.
func TestFsyncFailureRollsBackAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	fsync := faultio.NewFsync()
	w, err := Open(path, Options{Hooks: Hooks{BeforeSync: fsync.Check}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, testBatches()[0]); err != nil {
		t.Fatal(err)
	}

	fsync.FailEveryKth(1, nil)
	if err := w.Append(2, testBatches()[1]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append with failing fsync: %v", err)
	}
	if !w.damaged {
		t.Fatal("failed fsync did not damage the log")
	}
	fsync.FailEveryKth(0, nil)

	if err := w.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatches()[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recordsEqual(t, reopened.Recovered(), testBatches()[:2], 1)
}

// TestAppendAsyncHeldFsync pins the split append: AppendAsync returns
// with the frame written while its fsync is still held open, wait
// returns that fsync's result, and a failed fsync damages the log so
// that Repair drops the record. With no fsync due, wait returns at once.
func TestAppendAsyncHeldFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	fsync := faultio.NewFsync()
	w, err := Open(path, Options{Hooks: Hooks{BeforeSync: fsync.Check}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b := testBatches()

	held, release := fsync.Hold()
	wait, err := w.AppendAsync(1, b[0])
	if err != nil {
		t.Fatal(err)
	}
	<-held
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		t.Fatalf("wait returned %v while the fsync was held", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatalf("second wait = %v, want the same nil", err)
	}

	held, release = fsync.Hold()
	wait, err = w.AppendAsync(2, b[1])
	if err != nil {
		t.Fatal(err)
	}
	<-held
	fsync.FailEveryKth(1, nil)
	release()
	if err := wait(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("wait on a failed fsync = %v", err)
	}
	if !w.damaged {
		t.Fatal("failed fsync did not damage the log")
	}
	fsync.FailEveryKth(0, nil)
	if err := w.Repair(); err != nil {
		t.Fatal(err)
	}
	recs, err := w.Records()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, recs, b[:1], 1)

	none, err := Open(filepath.Join(t.TempDir(), "none.log"), Options{Sync: SyncNone, Hooks: Hooks{BeforeSync: fsync.Check}})
	if err != nil {
		t.Fatal(err)
	}
	defer none.Close()
	calls := fsync.Calls()
	wait, err = none.AppendAsync(1, b[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil || fsync.Calls() != calls {
		t.Fatalf("SyncNone: wait = %v, fsyncs %d → %d, want nil and none", err, calls, fsync.Calls())
	}
}

// TestRepairWhileFsyncStillFailing pins retryability: Repair under a
// still-failing fsync reports the error, leaves the log damaged, and
// succeeds once the fault clears.
func TestRepairWhileFsyncStillFailing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	fsync := faultio.NewFsync()
	w, err := Open(path, Options{Hooks: Hooks{BeforeSync: fsync.Check}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fsync.FailEveryKth(1, nil)
	if err := w.Append(1, testBatches()[0]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append: %v", err)
	}
	if err := w.Repair(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Repair under persistent fault: %v", err)
	}
	if !w.damaged {
		t.Fatal("failed Repair cleared the damage flag")
	}
	fsync.FailEveryKth(0, nil)
	if err := w.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, testBatches()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRepairUndamagedIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Repair(); err != nil {
		t.Fatal(err)
	}
}

// TestResetClearsDamage: truncating to the header is itself a repair.
func TestResetClearsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var inj *faultio.Writer
	w, err := Open(path, Options{Hooks: Hooks{
		WrapWriter: func(under io.Writer) io.Writer {
			inj = faultio.NewWriter(under)
			return inj
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	inj.ShortNext(2, nil)
	if err := w.Append(1, testBatches()[0]); err == nil {
		t.Fatal("torn append succeeded")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.damaged {
		t.Fatal("Reset left the log damaged")
	}
	if err := w.Append(2, testBatches()[1]); err != nil {
		t.Fatal(err)
	}
}

// TestScanReadFailureIsAnError: a read that fails mid-stream is an I/O
// fault, not a torn tail — Scan reports it instead of returning a
// shorter valid prefix that Open would truncate the log to.
func TestScanReadFailureIsAnError(t *testing.T) {
	frame := EncodeFrame(1, graph.Batch{Add: []graph.Edge{{From: 0, To: 1, Weight: 1}}})
	fault := errors.New("injected read fault")
	r := io.MultiReader(bytes.NewReader(fileMagic[:]), bytes.NewReader(frame), iotest.ErrReader(fault))
	if _, _, _, err := Scan(r); !errors.Is(err, fault) {
		t.Fatalf("Scan over a failing reader = %v, want the read fault", err)
	}
}

func TestScanEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(w.Recovered()) != 0 || w.Recovery().Truncated {
		t.Fatalf("fresh log reports %+v", w.Recovery())
	}
}
