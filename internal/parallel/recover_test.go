package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForWorkerPanickingKernel is the "deliberately panicking kernel"
// case: one bad index out of many must surface as a *PanicError on the
// calling goroutine (with the vertex range that caused it) instead of
// killing the process, and the loop must still terminate.
func TestForWorkerPanickingKernel(t *testing.T) {
	const n = 100_000
	const bad = 54321
	err := Catch(func() {
		ForWorker(n, 64, func(worker, start, end int) {
			for i := start; i < end; i++ {
				if i == bad {
					panic(fmt.Sprintf("kernel exploded at %d", i))
				}
			}
		})
	})
	if err == nil {
		t.Fatal("panicking kernel returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PanicError: %v", err, err)
	}
	if !(pe.Start <= bad && bad < pe.End) {
		t.Errorf("PanicError range [%d,%d) does not contain the panicking index %d", pe.Start, pe.End, bad)
	}
	if !strings.Contains(pe.Error(), "kernel exploded") {
		t.Errorf("PanicError.Error() = %q, want the panic value included", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
}

// TestForPanicInlinePath covers the small-n inline path, which must
// behave identically to the parallel path.
func TestForPanicInlinePath(t *testing.T) {
	err := Catch(func() {
		For(4, func(i int) {
			if i == 2 {
				panic("inline boom")
			}
		})
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("inline panic surfaced as %T (%v), want *PanicError", err, err)
	}
	if pe.Start != 0 || pe.End != 4 {
		t.Errorf("inline PanicError range [%d,%d), want [0,4)", pe.Start, pe.End)
	}
}

// TestForWorkerPanicQuiescence checks that the loop drains every worker
// before re-raising: once Catch returns, no body invocation is still in
// flight (the engine relies on this to leave no goroutine mutating
// state behind an error return).
func TestForWorkerPanicQuiescence(t *testing.T) {
	const n = 1 << 18
	var inFlight, maxSeen atomic.Int64
	err := Catch(func() {
		ForWorker(n, 16, func(_, start, end int) {
			cur := inFlight.Add(1)
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			if start == 0 {
				inFlight.Add(-1)
				panic("first chunk dies")
			}
			inFlight.Add(-1)
		})
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := inFlight.Load(); got != 0 {
		t.Errorf("%d bodies still in flight after Catch returned", got)
	}
	if maxSeen.Load() == 0 {
		t.Error("instrumentation never ran")
	}
}

// TestCatchPassthrough: no panic means nil error, and a panic value
// that already is an error stays reachable through errors.Is.
func TestCatchPassthrough(t *testing.T) {
	if err := Catch(func() {}); err != nil {
		t.Fatalf("Catch(noop) = %v", err)
	}
	sentinel := errors.New("sentinel")
	err := Catch(func() {
		For(10_000, func(i int) {
			if i == 7000 {
				panic(sentinel)
			}
		})
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false; err = %v", err)
	}
}
