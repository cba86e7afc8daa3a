package conc

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		var hits [57]atomic.Int32
		if err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(100, 4, func(i int) error {
		if i == 13 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	_ = ForEach(1_000_000, 2, func(i int) error {
		ran.Add(1)
		return boom
	})
	if n := ran.Load(); n > 10 {
		t.Errorf("ran %d calls after first error, want a handful", n)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCtxCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachCtx(ctx, 1_000_000, 4, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("ran %d calls after cancellation, want a handful", n)
	}
}

func TestForEachCtxCompletedWorkIsNotAnError(t *testing.T) {
	// A cancellation that lands after every index completed must not turn
	// finished work into an error.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	n := 64
	err := ForEachCtx(ctx, n, 4, func(i int) error {
		if int(ran.Add(1)) == n {
			cancel()
		}
		return nil
	})
	if int(ran.Load()) == n && err != nil {
		t.Fatalf("all %d calls completed but err = %v", n, err)
	}
}

func TestForEachCtxFnErrorWinsOverCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 100, 4, func(i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fn error, not ctx.Err()", err)
	}
}

func TestForEachCtxSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := ForEachCtx(ctx, 1000, 1, func(i int) error {
		ran++
		if ran == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 5 {
		t.Errorf("ran %d calls, want exactly 5 (cancellation checked before each)", ran)
	}
}

// TestForEachCtxNoGoroutineLeak is the goleak-style check of the worker
// pool: cancelled, errored, and completed pools must all drain before
// returning, leaving the process goroutine count where it started.
func TestForEachCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_ = ForEachCtx(ctx, 10_000, 8, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
			return nil
		})
		cancel()
		boom := errors.New("boom")
		_ = ForEachCtx(context.Background(), 100, 8, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
	}
	// ForEachCtx waits for its workers, so any growth here is a leak; allow
	// brief scheduler lag before declaring one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after — worker pool leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForEachPanicReachesCaller pins that a panicking fn behaves alike at
// every pool size: the caller recovers the original value, and every other
// in-flight call has finished by then, so no worker outlives the call.
func TestForEachPanicReachesCaller(t *testing.T) {
	run := map[string]func(fn func(int) error) error{
		"ForEach": func(fn func(int) error) error { return ForEach(100, 4, fn) },
		"ForEachCtx": func(fn func(int) error) error {
			return ForEachCtx(context.Background(), 100, 4, fn)
		},
	}
	for name, forEach := range run {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var inFlight atomic.Int32
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = forEach(func(i int) error {
					inFlight.Add(1)
					defer inFlight.Add(-1)
					if i == 3 {
						panic("boom at 3")
					}
					time.Sleep(100 * time.Microsecond)
					return nil
				})
				return nil
			}()
			if got != "boom at 3" {
				t.Fatalf("recovered %v, want the panic value of fn(3)", got)
			}
			if n := inFlight.Load(); n != 0 {
				t.Fatalf("%d calls still running after the panic reached the caller", n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after — worker outlived the call", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
