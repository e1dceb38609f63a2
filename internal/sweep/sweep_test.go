package sweep

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), 8, items, func(_ context.Context, i, v int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // shuffle completion order
		}
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("results = %d, want %d", len(got), len(items))
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	fn := func(_ context.Context, i, v int) (int, error) { return v*v + i, nil }
	serial, err := Map(context.Background(), 1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), 4, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	items := make([]int, 24)
	_, err := Map(context.Background(), workers, items, func(_ context.Context, i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low-index failure")
	errHigh := errors.New("high-index failure")
	items := make([]int, 8)
	// Index 1 fails slowly, index 5 fails immediately: the pool must still
	// report index 1's error, as a serial loop would.
	_, err := Map(context.Background(), 4, items, func(_ context.Context, i, _ int) (int, error) {
		switch i {
		case 1:
			time.Sleep(20 * time.Millisecond)
			return 0, errLow
		case 5:
			return 0, errHigh
		}
		time.Sleep(5 * time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}

func TestMapErrorStopsScheduling(t *testing.T) {
	var started atomic.Int32
	items := make([]int, 1000)
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, items, func(_ context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); int(n) == len(items) {
		t.Errorf("all %d items ran despite early failure", n)
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	items := make([]int, 1000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, items, func(_ context.Context, i, _ int) (int, error) {
			if started.Add(1) == 4 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if n := started.Load(); int(n) == len(items) {
		t.Error("cancellation did not stop scheduling")
	}
}

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 4, []int{1, 2, 3}, func(_ context.Context, i, v int) (int, error) {
		t.Error("fn ran on a cancelled context")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, i, v int) (int, error) {
		return v, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty map = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0, 0); w != DefaultWorkers() {
		t.Errorf("Workers(0, 0) = %d, want %d", w, DefaultWorkers())
	}
	if w := Workers(-3, 10); w != DefaultWorkers() {
		t.Errorf("Workers(-3, 10) = %d, want %d", w, DefaultWorkers())
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3", w)
	}
	if w := Workers(2, 100); w != 2 {
		t.Errorf("Workers(2, 100) = %d, want 2", w)
	}
	if w := Workers(5, 0); w != 5 {
		t.Errorf("Workers(5, 0) = %d, want 5", w)
	}
}

// TestMapLargestFirstFeedOrder pins the scheduling contract: a serial run
// starts the items in non-increasing size order, equal sizes in input order,
// and every pool size returns the results in input order.
func TestMapLargestFirstFeedOrder(t *testing.T) {
	sizes := []int{2, 9, 4, 9, 1, 7, 4, 3}
	size := func(v int) int { return v }
	var started []int
	_, err := MapLargestFirst(context.Background(), 1, sizes, size, func(_ context.Context, i, _ int) (int, error) {
		started = append(started, i)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5, 2, 6, 7, 0, 4}
	if !slices.Equal(started, want) {
		t.Fatalf("serial start order = %v, want %v", started, want)
	}
	for _, workers := range []int{1, 2, 3, 4} {
		got, err := MapLargestFirst(context.Background(), workers, sizes, size, func(_ context.Context, i, v int) (int, error) {
			time.Sleep(time.Duration(v) * 100 * time.Microsecond) // finish out of feed order
			return 10*i + v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range sizes {
			if got[i] != 10*i+v {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], 10*i+v)
			}
		}
	}
}

// TestMapLargestFirstErrorByFeedOrder fails two items and requires the same
// error at pool sizes 1, 2 and 4: the one fed first (the larger item, though
// it sits later in the input and fails later in time), as a serial run over
// the feed order reports it.
func TestMapLargestFirstErrorByFeedOrder(t *testing.T) {
	errSmall := errors.New("small item failed")
	errLarge := errors.New("large item failed")
	sizes := []int{1, 3, 2, 8, 5, 2}
	for _, workers := range []int{1, 2, 4} {
		_, err := MapLargestFirst(context.Background(), workers, sizes, func(v int) int { return v },
			func(_ context.Context, i, _ int) (int, error) {
				switch i {
				case 1: // fed fourth, fails at once
					return 0, errSmall
				case 3: // fed first, fails last
					time.Sleep(20 * time.Millisecond)
					return 0, errLarge
				}
				time.Sleep(time.Millisecond)
				return 0, nil
			})
		if !errors.Is(err, errLarge) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errLarge)
		}
	}
}
