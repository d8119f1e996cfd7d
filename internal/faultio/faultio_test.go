package faultio

import (
	"bytes"
	"errors"
	"testing"
)

func TestPassThrough(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello" || w.Written() != 5 {
		t.Fatalf("got %q, written %d", buf.String(), w.Written())
	}
}

func TestFailAfterShortWrite(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf).FailAfter(7, nil)
	n, err := w.Write([]byte("0123"))
	if n != 4 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	// This write crosses the budget: 3 bytes land, then the error.
	n, err = w.Write([]byte("456789"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: n=%d err=%v", n, err)
	}
	if buf.String() != "0123456" {
		t.Fatalf("underlying holds %q, want torn prefix %q", buf.String(), "0123456")
	}
	// Everything after the budget fails outright.
	if n, err := w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure write: n=%d err=%v", n, err)
	}
}

func TestFailAfterCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	w := NewWriter(&bytes.Buffer{}).FailAfter(0, sentinel)
	if _, err := w.Write([]byte("a")); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestFlipBit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf).FlipBit(6, 3)
	if _, err := w.Write([]byte("0123")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("4567")); err != nil {
		t.Fatal(err)
	}
	want := []byte{'0', '1', '2', '3', '4', '5', '6' ^ 0x08, '7'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("got %v, want %v", buf.Bytes(), want)
	}
}

// TestFailNWritesTransientOutage pins the self-healing shape the chaos
// harness leans on: exactly n calls fail with nothing accepted, then
// the writer passes through again with byte accounting intact.
func TestFailNWritesTransientOutage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf).FailNWrites(2, nil)
	for i := 0; i < 2; i++ {
		if n, err := w.Write([]byte("xx")); n != 0 || !errors.Is(err, ErrInjected) {
			t.Fatalf("outage write %d: n=%d err=%v", i, n, err)
		}
	}
	if n, err := w.Write([]byte("ok")); n != 2 || err != nil {
		t.Fatalf("post-outage write: n=%d err=%v", n, err)
	}
	if buf.String() != "ok" || w.Written() != 2 {
		t.Fatalf("underlying holds %q, written=%d; want %q, 2", buf.String(), w.Written(), "ok")
	}
	// Disarm with n <= 0.
	w.FailNWrites(0, nil)
	if _, err := w.Write([]byte("y")); err != nil {
		t.Fatalf("disarmed write: %v", err)
	}
}

// TestShortNextTornWrite pins the single torn write: the next call
// keeps only the configured prefix and errors, later calls are whole.
func TestShortNextTornWrite(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf).ShortNext(3, nil)
	n, err := w.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("gh")); n != 2 || err != nil {
		t.Fatalf("write after tear: n=%d err=%v", n, err)
	}
	if buf.String() != "abcgh" {
		t.Fatalf("underlying holds %q, want %q", buf.String(), "abcgh")
	}
}

// TestFsyncFailEveryKth pins the periodic fsync injector: exactly every
// k-th Check fails, the rest pass, and the counters account for both —
// periodic (not latched), so a repair loop that retries always
// converges.
func TestFsyncFailEveryKth(t *testing.T) {
	s := NewFsync().FailEveryKth(3, nil)
	var got []bool
	for i := 0; i < 9; i++ {
		got = append(got, s.Check() != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Check pattern %v, want %v", got, want)
		}
	}
	if s.Calls() != 9 || s.Failures() != 3 {
		t.Fatalf("Calls=%d Failures=%d, want 9, 3", s.Calls(), s.Failures())
	}
	if err := s.Check(); err == nil {
		// 10th call: not a multiple of 3.
	} else {
		t.Fatalf("Check 10 = %v, want nil", err)
	}
	s.FailEveryKth(0, nil) // disarm
	for i := 0; i < 5; i++ {
		if err := s.Check(); err != nil {
			t.Fatalf("disarmed Check failed: %v", err)
		}
	}
}

func TestFsyncZeroValueNeverFails(t *testing.T) {
	var s Fsync
	for i := 0; i < 4; i++ {
		if err := s.Check(); err != nil {
			t.Fatalf("zero-value Check failed: %v", err)
		}
	}
}

func TestFsyncCustomError(t *testing.T) {
	sentinel := errors.New("flush rejected")
	s := NewFsync().FailEveryKth(1, sentinel)
	if err := s.Check(); !errors.Is(err, sentinel) {
		t.Fatalf("Check = %v, want sentinel", err)
	}
}

func TestFlipBitDoesNotMutateInput(t *testing.T) {
	src := []byte{0xAA, 0xBB}
	w := NewWriter(&bytes.Buffer{}).FlipBit(1, 0)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if src[1] != 0xBB {
		t.Fatalf("input slice mutated: %v", src)
	}
}

// TestFsyncHold pins the slow-disk gate: a held Check announces itself
// and does not return until release, a failure armed while it is held
// applies to it, and after release checks pass straight through.
func TestFsyncHold(t *testing.T) {
	s := NewFsync()
	held, release := s.Hold()
	done := make(chan error, 1)
	go func() { done <- s.Check() }()
	<-held
	select {
	case err := <-done:
		t.Fatalf("held Check returned %v before release", err)
	default:
	}
	s.FailEveryKth(1, nil)
	release()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("held Check = %v, want the failure armed while it was held", err)
	}
	s.FailEveryKth(0, nil)
	release() // idempotent
	if err := s.Check(); err != nil {
		t.Fatalf("Check after release = %v", err)
	}
	if s.Calls() != 2 || s.Failures() != 1 {
		t.Fatalf("Calls=%d Failures=%d, want 2, 1", s.Calls(), s.Failures())
	}
}
