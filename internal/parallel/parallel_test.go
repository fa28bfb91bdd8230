package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 100} {
		n := 137
		seen := make([]int32, n)
		err := ForEach(n, workers, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(50, 4, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachSequentialErrorStopsEarly(t *testing.T) {
	boom := errors.New("boom")
	var count int
	err := ForEach(100, 1, func(i int) error {
		count++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatal("expected error")
	}
	if count != 4 {
		t.Fatalf("sequential path ran %d iterations after error, want 4", count)
	}
}

// After one iteration fails, no worker starts another: each worker
// finishes at most the iteration it is in, so at most workers+1 calls
// run in all. Static blocks used to run the other worker's whole block.
func TestForEachStopsAfterFailure(t *testing.T) {
	const workers = 2
	boom := errors.New("boom")
	var calls atomic.Int32
	err := ForEach(100, workers, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n > workers+1 {
		t.Fatalf("%d iterations ran, want <= %d", n, workers+1)
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {3, 10}, {1, 1}, {100, 7}, {7, 7}, {0, 4},
	} {
		covered := 0
		prevHi := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := Partition(tc.n, tc.workers, w)
			if lo != prevHi {
				t.Fatalf("n=%d w=%d: gap at %d (lo=%d)", tc.n, tc.workers, prevHi, lo)
			}
			if hi < lo {
				t.Fatalf("n=%d w=%d: hi < lo", tc.n, tc.workers)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d workers=%d: covered %d", tc.n, tc.workers, covered)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	// No worker's share may exceed another's by more than 1.
	min, max := 1<<30, 0
	for w := 0; w < 7; w++ {
		lo, hi := Partition(100, 7, w)
		size := hi - lo
		if size < min {
			min = size
		}
		if size > max {
			max = size
		}
	}
	if max-min > 1 {
		t.Fatalf("imbalance: min=%d max=%d", min, max)
	}
}

func TestChunks(t *testing.T) {
	got := Chunks(10, 4)
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("Chunks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Chunks = %v, want %v", got, want)
		}
	}
	if Chunks(0, 4) != nil {
		t.Fatal("Chunks(0) should be nil")
	}
	one := Chunks(5, 0)
	if len(one) != 1 || one[0] != [2]int{0, 5} {
		t.Fatalf("Chunks(5,0) = %v", one)
	}
	if c := Chunks(5, 100); len(c) != 1 {
		t.Fatalf("oversized chunk size should yield one chunk, got %v", c)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be ≥ 1")
	}
}
