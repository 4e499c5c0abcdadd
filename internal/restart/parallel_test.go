package restart

import (
	"errors"
	"testing"
	"time"

	"stochsyn/internal/search"
)

func TestParallelNaiveSolves(t *testing.T) {
	// Every search finishes at 300 iterations, so whichever workers
	// the scheduler feeds, some search must cross its finish line well
	// within budget. (Grant distribution across workers is
	// deliberately unfair — a fast worker may drain the pool before
	// the others start — so the test must not rely on a particular
	// search getting budget.)
	res := (&ParallelNaive{Workers: 4, Chunk: 100}).Run(fixedFactory(300), 100_000)
	if !res.Solved {
		t.Fatalf("parallel naive never solved: %+v", res)
	}
	if res.Winner == nil {
		t.Fatal("solved without a winner")
	}
	if res.Iterations > 100_000 {
		t.Errorf("budget exceeded: %d", res.Iterations)
	}
}

func TestParallelNaiveConsumesExactBudget(t *testing.T) {
	// Unsolvable searches with a chunk that does not divide the
	// budget: the final partial chunk must still be spent, not
	// stranded (the pool blocks hungry workers while grants are
	// outstanding instead of letting them exit for good).
	res := (&ParallelNaive{Workers: 4, Chunk: 64}).Run(fixedFactory(-1), 10_001)
	if res.Solved {
		t.Fatal("unsolvable factory solved")
	}
	if res.Iterations != 10_001 {
		t.Errorf("consumed %d of 10001: stranded budget", res.Iterations)
	}
}

func TestParallelNaiveSearchesCountsConsumers(t *testing.T) {
	// With budget for a single chunk, only one search can consume
	// budget: Searches must report actual consumers, not the
	// configured worker count.
	res := (&ParallelNaive{Workers: 8, Chunk: 4096}).Run(fixedFactory(-1), 4096)
	if res.Solved {
		t.Fatal("unsolvable factory solved")
	}
	if res.Iterations != 4096 {
		t.Errorf("consumed %d of 4096", res.Iterations)
	}
	if res.Searches != 1 {
		t.Errorf("Searches = %d, want the 1 search that actually got budget (not the 8 workers)", res.Searches)
	}
}

func TestParallelNaiveSolveWakesWaiters(t *testing.T) {
	// A solver returns the unused part of its grant and closes the
	// pool; workers blocked on an empty pool must wake up and exit
	// rather than deadlock.
	done := make(chan Result, 1)
	go func() {
		// Budget equal to one chunk: one worker grabs it all, solves
		// partway through, and the other workers are left waiting on
		// an empty pool with the grant outstanding.
		done <- (&ParallelNaive{Workers: 4, Chunk: 8192}).Run(fixedFactory(50), 8192)
	}()
	select {
	case res := <-done:
		if !res.Solved {
			t.Fatalf("expected a solve: %+v", res)
		}
		if res.Iterations > 8192 {
			t.Errorf("iterations %d exceed budget", res.Iterations)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel naive deadlocked after an early solve")
	}
}

func TestParallelNaivePanicsOnBadWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Workers <= 0")
		}
	}()
	(&ParallelNaive{}).Run(fixedFactory(1), 10)
}

func TestSequentialPanicsOnNonPositiveCutoff(t *testing.T) {
	// A user-supplied cutoff function returning 0 used to make Run
	// spin forever (zero used, budget never advancing); it must fail
	// fast instead.
	s := &Sequential{
		StrategyName: "broken",
		Cutoff:       func(i int) int64 { return 0 },
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a non-positive cutoff")
		}
	}()
	s.Run(fixedFactory(-1), 1000)
}

func TestRegistryWorkersSpec(t *testing.T) {
	// A spec never sizes the pool: the tree's workers come from
	// Tree.Workers alone, and a fourth field is rejected.
	for _, spec := range []string{"adaptive:500:0", "pluby:500:32"} {
		if tree := MustNew(spec).(*Tree); tree.Workers != 0 {
			t.Errorf("New(%q).Workers = %d, want 0", spec, tree.Workers)
		}
	}
	for _, bad := range []string{"adaptive:500:0:8", "pluby:500:32:4", "adaptive:500:0:x", "pluby:500:-2"} {
		if _, err := New(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("New(%q) error %v does not wrap ErrBadSpec", bad, err)
		}
	}
	// Name is executor-independent: comparisons treat both the same.
	if got := (&Tree{T0: 500, Adaptive: true, Workers: 8}).Name(); got != "adaptive" {
		t.Errorf("concurrent adaptive name = %q", got)
	}
}

// TestParallelNaiveFactoryCalledInOrder pins the search.Factory
// contract for the naive pool: its searches are made on the calling
// goroutine, in id order, before any worker starts. Under -race the
// unsynchronized append is itself the check for concurrent calls.
func TestParallelNaiveFactoryCalledInOrder(t *testing.T) {
	var ids []uint64
	base := fixedFactory(-1)
	f := func(id uint64) search.Search {
		ids = append(ids, id)
		return base(id)
	}
	(&ParallelNaive{Workers: 4, Chunk: 64}).Run(f, 10_000)
	if len(ids) != 4 {
		t.Fatalf("factory called %d times, want 4", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("call %d got id %d; ids %v", i, id, ids)
		}
	}
}
