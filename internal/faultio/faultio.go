// Package faultio provides io.Writer wrappers that inject storage
// faults — hard failures after a byte budget, transient per-call
// failures, short writes, bit flips — and an fsync-failure injector,
// so crash-safety code (WAL framing, checkpoint protocols, degraded
// serving) can be exercised against torn writes and flaky disks
// deterministically, without killing processes or yanking hardware.
//
// All injectors are safe for concurrent use: a chaos harness arms and
// disarms faults from its own goroutine while the writer under test
// keeps appending from the apply loop.
package faultio

import (
	"errors"
	"io"
	"sync"
)

// ErrInjected is the default error returned by armed faults. Tests
// distinguish injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultio: injected write failure")

// Writer wraps an io.Writer and injects configured faults. The zero
// value (or NewWriter) passes writes through unchanged; arm faults with
// FailAfter, FailNWrites, ShortNext and FlipBit. Faults compose: a
// write can both carry a bit flip and be cut short.
type Writer struct {
	w io.Writer

	mu sync.Mutex

	failAfter int64 // bytes accepted before failing; -1 = disabled
	failErr   error

	failN    int // number of upcoming writes rejected outright; 0 = disabled
	failNErr error

	shortKeep int // -1 = disabled; else next write truncated to this many bytes
	shortErr  error

	flipAt  int64 // byte offset (across all writes) whose bit flips; -1 = disabled
	flipBit uint  // bit index 0..7

	written int64
}

// NewWriter returns a pass-through Writer over w with no faults armed.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, failAfter: -1, shortKeep: -1, flipAt: -1}
}

// FailAfter arms a hard failure once n total bytes have been accepted:
// the write that crosses the budget is truncated to the remaining
// budget (a short write — the torn-tail crash model) and returns err
// (ErrInjected if nil), as do all subsequent writes. A negative n
// disarms. Returns the receiver for chaining.
func (f *Writer) FailAfter(n int64, err error) *Writer {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfter, f.failErr = n, err
	return f
}

// FailNWrites arms a transient outage: the next n Write calls fail
// outright (no bytes accepted) with err (ErrInjected if nil), after
// which writes pass through again — the flaky-disk model, self-healing
// so recovery supervisors can be soaked without a disarm call. n <= 0
// disarms. Returns the receiver for chaining.
func (f *Writer) FailNWrites(n int, err error) *Writer {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failN, f.failNErr = n, err
	return f
}

// ShortNext arms a single short write: the next Write call accepts only
// keep bytes and returns err (ErrInjected if nil); subsequent writes
// pass through. Returns the receiver for chaining.
func (f *Writer) ShortNext(keep int, err error) *Writer {
	if err == nil {
		err = ErrInjected
	}
	if keep < 0 {
		keep = 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortKeep, f.shortErr = keep, err
	return f
}

// FlipBit arms a single bit flip at absolute byte offset off (counting
// every byte ever written through f), bit index bit (0..7) — the silent
// corruption model. Returns the receiver for chaining.
func (f *Writer) FlipBit(off int64, bit uint) *Writer {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipAt, f.flipBit = off, bit%8
	return f
}

// Written reports the total bytes accepted so far (i.e. passed to the
// underlying writer).
func (f *Writer) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// Write applies armed faults, forwards the (possibly mangled or
// truncated) data, and accounts accepted bytes.
func (f *Writer) Write(p []byte) (int, error) {
	f.mu.Lock()
	if f.failN > 0 {
		f.failN--
		err := f.failNErr
		f.mu.Unlock()
		return 0, err
	}
	n := len(p)
	var failErr error
	if f.shortKeep >= 0 {
		if n > f.shortKeep {
			n = f.shortKeep
		}
		failErr = f.shortErr
		f.shortKeep = -1
	}
	if f.failAfter >= 0 {
		remaining := f.failAfter - f.written
		if remaining <= 0 {
			err := f.failErr
			f.mu.Unlock()
			return 0, err
		}
		if int64(n) > remaining {
			n = int(remaining)
			failErr = f.failErr
		}
	}
	buf := p[:n]
	if f.flipAt >= 0 && f.flipAt >= f.written && f.flipAt < f.written+int64(n) {
		mangled := append([]byte(nil), buf...)
		mangled[f.flipAt-f.written] ^= 1 << f.flipBit
		buf = mangled
	}
	underlying := f.w
	f.mu.Unlock()
	wrote, err := underlying.Write(buf)
	f.mu.Lock()
	f.written += int64(wrote)
	f.mu.Unlock()
	if err != nil {
		return wrote, err
	}
	return wrote, failErr
}

// Fsync injects fsync failures. Wire its Check method in front of a
// component's fsync calls (wal.Hooks.BeforeSync); the zero value (or
// NewFsync) never fails.
type Fsync struct {
	mu    sync.Mutex
	every int // every k-th check fails; 0 = disabled
	err   error
	calls int64
	fails int64

	// gate, while non-nil, holds every Check until it is closed; held
	// announces each check it holds.
	gate, held chan struct{}
}

// NewFsync returns an injector with no faults armed.
func NewFsync() *Fsync { return &Fsync{} }

// FailEveryKth arms a periodic failure: every k-th Check call (the
// k-th, 2k-th, ...) returns err (ErrInjected if nil). The fault is
// periodic rather than latched, so retry loops converge — the model
// for a disk that intermittently refuses to flush. k <= 0 disarms.
// Returns the receiver for chaining.
func (s *Fsync) FailEveryKth(k int, err error) *Fsync {
	if err == nil {
		err = ErrInjected
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.every, s.err = k, err
	return s
}

// Hold holds every Check from now on open until release is called — the
// model for a slow disk, which lets a test observe everything that
// happens while an fsync is in flight. held receives once for each check
// that starts waiting (it buffers one). A held check that a FailEveryKth
// armed before the release fails. release is idempotent.
func (s *Fsync) Hold() (held <-chan struct{}, release func()) {
	gate, h := make(chan struct{}), make(chan struct{}, 1)
	s.mu.Lock()
	s.gate, s.held = gate, h
	s.mu.Unlock()
	return h, sync.OnceFunc(func() {
		s.mu.Lock()
		s.gate, s.held = nil, nil
		s.mu.Unlock()
		close(gate)
	})
}

// Check is called before each fsync; a non-nil result means the fsync
// must fail with that error.
func (s *Fsync) Check() error {
	s.mu.Lock()
	gate, held := s.gate, s.held
	s.mu.Unlock()
	if gate != nil {
		select {
		case held <- struct{}{}:
		default:
		}
		<-gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.every > 0 && s.calls%int64(s.every) == 0 {
		s.fails++
		return s.err
	}
	return nil
}

// Calls reports how many fsyncs were checked; Failures how many were
// failed.
func (s *Fsync) Calls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Failures reports how many Check calls returned an error.
func (s *Fsync) Failures() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fails
}
