// Package parallel provides the small set of concurrency utilities the
// module needs: a bounded parallel-for over index ranges and chunk
// partitioning helpers. Everything is built from goroutines and the sync
// package; there are no external dependencies.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes a
// non-positive value: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach invokes fn(i) for every i in [0, n) using up to `workers`
// goroutines (non-positive means DefaultWorkers). Iterations are handed
// out in contiguous blocks to preserve cache locality. ForEach returns the
// first non-nil error reported by fn; once any iteration has failed, no
// worker starts another, and iterations already running finish.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: every worker checks ctx before
// each iteration, so a cancelled context stops the loop within one unit
// of work per worker and ForEachCtx returns ctx.Err(). Iterations already
// in flight run to completion; none are abandoned half-done.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		failed.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		lo, hi := Partition(n, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi && !failed.Load(); i++ {
				if err := ctx.Err(); err != nil {
					record(err)
					return
				}
				if err := fn(i); err != nil {
					record(err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// Partition returns the half-open range [lo, hi) of items assigned to
// worker w when n items are split across `workers` workers as evenly as
// possible (the first n%workers workers receive one extra item).
func Partition(n, workers, w int) (lo, hi int) {
	base := n / workers
	extra := n % workers
	if w < extra {
		lo = w * (base + 1)
		hi = lo + base + 1
	} else {
		lo = extra*(base+1) + (w-extra)*base
		hi = lo + base
	}
	return lo, hi
}

// Chunks splits n items into chunks of at most chunkSize and returns the
// half-open [lo, hi) boundaries. chunkSize ≤ 0 yields a single chunk.
func Chunks(n, chunkSize int) [][2]int {
	if n <= 0 {
		return nil
	}
	if chunkSize <= 0 || chunkSize >= n {
		return [][2]int{{0, n}}
	}
	var out [][2]int
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
