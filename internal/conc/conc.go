package conc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the first error any call produced. Calls are claimed from an
// atomic counter, so the assignment of indexes to workers is dynamic, but
// callers writing results into slot i of a pre-sized slice get
// deterministic output ordering regardless of scheduling. After an error,
// in-flight calls finish but no new indexes are claimed. A panic in fn
// stops the claiming the same way; once the workers drain, ForEach
// re-panics with the first panic's value on the calling goroutine, so a
// panic surfaces to the caller whatever the pool size.
//
// ForEach is deliberately uncancellable — it is the pool the post-commit
// phases run on, where a landed change must finish adopting on every view.
// Work that should stop on cancellation goes through ForEachCtx.
func ForEach(n, workers int, fn func(i int) error) error {
	return forEach(nil, n, workers, fn)
}

// ForEachCtx is ForEach under a context: no new indexes are claimed once
// ctx is cancelled, every in-flight call finishes, and all workers drain
// before the call returns (no goroutine outlives it). The result is the
// first fn error if one occurred, else ctx.Err() if cancellation left part
// of the range unprocessed, else nil — a cancellation that lands after the
// last call completed is not an error, because the work it guards is done.
// fn is responsible for observing ctx inside long-running calls; ForEachCtx
// guarantees promptness only at call boundaries.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return forEach(ctx, n, workers, fn)
}

// forEach is the shared claim-loop; a nil ctx (the ForEach form) never
// cancels, so no synthetic background context is manufactured for it.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				return ctx.Err()
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next      atomic.Int64
		completed atomic.Int64
		failed    atomic.Bool
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstEr   error
		panicOnce sync.Once
		panicked  bool
		panicVal  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked, panicVal = true, r })
					failed.Store(true)
				}
			}()
			for {
				if cancelled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	if firstEr != nil {
		return firstEr
	}
	if completed.Load() < int64(n) && ctx != nil {
		// Only cancellation can leave a shortfall without an fn error.
		return ctx.Err()
	}
	return nil
}
