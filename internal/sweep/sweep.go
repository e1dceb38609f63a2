// Package sweep runs independent experiment points on a bounded worker
// pool. The harness uses it to evaluate (application, process count) and
// grouping-threshold grids concurrently: each point is still simulated by
// the single-threaded replay/predictor engines, so results are bit-identical
// to a serial sweep — parallelism only changes wall-clock time, never
// output.
//
// The pool is GOMAXPROCS-sized by default, context-cancellable, and returns
// results in input order regardless of completion order. Items are fed to
// the workers in one fixed order: input order for Map, largest first for
// MapLargestFirst. A serial run walks the same feed order, and on failure
// the error of the item earliest in that order is returned, so the error is
// the same at every pool size.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
)

// DefaultWorkers is the pool size used when the caller does not pick one:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers normalises a requested pool size for n items: non-positive
// selects DefaultWorkers, and the pool never exceeds the number of items
// (n <= 0 means "unknown", leaving the size uncapped).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = DefaultWorkers()
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item on a pool of at most workers goroutines and
// returns the results ordered by input index. Items are fed in input order.
// A non-positive workers count selects DefaultWorkers; workers == 1 runs the
// items serially on the calling goroutine.
//
// On failure the remaining items are cancelled and the error of the
// lowest-index failed item is returned — the same error a serial loop over
// the items would have surfaced, so error behaviour does not depend on
// scheduling. Cancelling ctx stops the sweep and returns ctx's error.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	return mapFeed(ctx, workers, items, nil, fn)
}

// MapLargestFirst is Map with the items fed largest first: in non-increasing
// size order, equal sizes in input order. Starting the longest jobs first
// (Graham's LPT rule) keeps every worker busy to the end of a sweep whose
// largest items would otherwise come last; size is a static cost proxy such
// as a point's process count. Results still come back in input order.
//
// Every pool size, serial included, walks the same feed order, and on
// failure the error of the failed item earliest in it is returned, so the
// error does not depend on the pool size either.
func MapLargestFirst[T, R any](ctx context.Context, workers int, items []T, size func(T) int, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	feed := make([]int, len(items))
	for i := range feed {
		feed[i] = i
	}
	slices.SortStableFunc(feed, func(a, b int) int { return cmp.Compare(size(items[b]), size(items[a])) })
	return mapFeed(ctx, workers, items, feed, fn)
}

// at returns the input index fed at position pos; a nil feed is input order.
func at(feed []int, pos int) int {
	if feed == nil {
		return pos
	}
	return feed[pos]
}

// mapFeed runs fn over items, handing them out in feed order (input indices
// by feed position), and reports the failure earliest in that order.
func mapFeed[T, R any](ctx context.Context, workers int, items []T, feed []int, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, nil
	}
	w := Workers(workers, len(items))
	out := make([]R, len(items))
	if w == 1 {
		for pos := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			i := at(feed, pos)
			r, err := fn(ctx, i, items[i])
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstPos int
		firstErr error
	)
	fail := func(pos int, err error) {
		mu.Lock()
		// Keep the error earliest in feed order; a context error raised by
		// our own cancellation must not displace the failure that caused it.
		if firstErr == nil || (pos < firstPos && !errors.Is(err, context.Canceled)) {
			firstPos, firstErr = pos, err
		}
		mu.Unlock()
		cancel()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for pos := range next {
				i := at(feed, pos)
				r, err := fn(cctx, i, items[i])
				if err != nil {
					fail(pos, err)
					continue
				}
				out[i] = r
			}
		}()
	}
	// Feed positions in order so that whenever the item at position j
	// fails, every position before j has already been started — the minimum
	// recorded position then equals the serial loop's first failure.
send:
	for pos := range items {
		select {
		case next <- pos:
		case <-cctx.Done():
			break send
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
