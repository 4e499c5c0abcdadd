package restart

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stochsyn/internal/search"
)

// slowSearch never finishes and sleeps briefly on every Step, so a
// strategy driving it is wall-clock slow and must rely on cancellation
// to stop. Every consumed iteration is tallied into a shared counter,
// letting tests check the strategy's accounting against ground truth.
type slowSearch struct {
	total *atomic.Int64
	cost  float64
}

func (s *slowSearch) Step(budget int64) (int64, bool) {
	time.Sleep(50 * time.Microsecond)
	s.total.Add(budget)
	return budget, false
}

func (s *slowSearch) Cost() float64 { return s.cost }

// slowFactory yields slow never-finishing searches with varying costs
// (so the adaptive tree performs swaps while cancellation is pending).
func slowFactory(total *atomic.Int64) search.Factory {
	return func(id uint64) search.Search {
		return &slowSearch{total: total, cost: float64(id%7) + 1}
	}
}

// cancellableStrategies is the matrix for the cancellation tests: the
// sequential strategies, both tree executors, and the parallel naive
// pool.
func cancellableStrategies() []struct {
	name string
	s    Strategy
} {
	return []struct {
		name string
		s    Strategy
	}{
		{"naive", Naive{}},
		{"luby", NewLuby(1000)},
		{"tree-seq", &Tree{T0: 256, Adaptive: true}},
		{"tree-workers", &Tree{T0: 256, Adaptive: true, Workers: 4}},
		{"pluby-workers", &Tree{T0: 256, Workers: 4}},
		{"pnaive", &ParallelNaive{Workers: 4, Chunk: 512}},
	}
}

func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cancellableStrategies() {
		t.Run(tc.name, func(t *testing.T) {
			var total atomic.Int64
			res := tc.s.RunContext(ctx, slowFactory(&total), 1<<50)
			if !res.Cancelled {
				t.Errorf("Cancelled = false, want true: %+v", res)
			}
			if res.Solved {
				t.Errorf("Solved = true on a never-finishing factory: %+v", res)
			}
			if res.Iterations != total.Load() {
				t.Errorf("accounting: result reports %d iterations, searches consumed %d",
					res.Iterations, total.Load())
			}
			if res.Iterations > 1<<20 {
				t.Errorf("pre-cancelled run consumed %d iterations, expected a prompt stop", res.Iterations)
			}
		})
	}
}

func TestCancelMidRun(t *testing.T) {
	for _, tc := range cancellableStrategies() {
		t.Run(tc.name, func(t *testing.T) {
			var total atomic.Int64
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan Result, 1)
			go func() { done <- tc.s.RunContext(ctx, slowFactory(&total), 1<<50) }()
			time.Sleep(20 * time.Millisecond)
			cancel()
			var res Result
			select {
			case res = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("strategy did not return within 10s of cancellation")
			}
			if !res.Cancelled {
				t.Errorf("Cancelled = false, want true: %+v", res)
			}
			if res.Solved || res.Winner != nil {
				t.Errorf("Solved/Winner set on a never-finishing factory: %+v", res)
			}
			if res.Iterations <= 0 || res.Iterations >= 1<<50 {
				t.Errorf("Iterations = %d, want 0 < n < budget", res.Iterations)
			}
			if res.Iterations != total.Load() {
				t.Errorf("accounting: result reports %d iterations, searches consumed %d",
					res.Iterations, total.Load())
			}
		})
	}
}

// TestCancelNoGoroutineLeak runs the concurrent strategies through a
// cancelled execution several times and checks the goroutine count
// returns to its baseline.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for _, s := range []Strategy{
			&Tree{T0: 256, Adaptive: true, Workers: 4},
			&ParallelNaive{Workers: 4, Chunk: 512},
		} {
			var total atomic.Int64
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			s.RunContext(ctx, slowFactory(&total), 1<<50)
			cancel()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after cancelled runs", before, runtime.NumGoroutine())
}

// TestRunContextUncancelledMatchesRun checks that driving a strategy
// through a live (cancellable but never cancelled) context — which
// switches stepCtx to chunked stepping — produces the same result as
// the monolithic Run path.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Strategy
	}{
		{"naive", Naive{}},
		{"luby", NewLuby(7)},
		{"fixed", NewFixed(13)},
		{"tree-seq", &Tree{T0: 16, Adaptive: true}},
		{"tree-workers", &Tree{T0: 16, Adaptive: true, Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fixedFactory(90_000, 3_000, -1, 120_000, 70_001)
			want := tc.s.Run(f, 200_000)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := tc.s.RunContext(ctx, f, 200_000)

			if got.Solved != want.Solved || got.Iterations != want.Iterations ||
				got.Searches != want.Searches || got.Cancelled != want.Cancelled {
				t.Errorf("RunContext(live ctx) = %+v, Run = %+v", got, want)
			}
		})
	}
}

// quitSearch is a slowSearch that, when quit is set, returns half of
// its first grant unfinished, as a search.Run does when its own
// context is cancelled.
type quitSearch struct {
	slowSearch
	quit bool
}

func (q *quitSearch) Step(budget int64) (int64, bool) {
	if q.quit {
		q.quit = false
		q.total.Add(budget / 2)
		return budget / 2, false
	}
	return q.slowSearch.Step(budget)
}

// TestTreeEarlyReturnCancels drives the tree strategies with a search
// that returns early unfinished under a strategy context that is never
// cancelled, as when only the search's own context was. Both executors
// must treat that as a cancellation: stop, report Cancelled, and count
// exactly the iterations executed.
func TestTreeEarlyReturnCancels(t *testing.T) {
	const budget = 100_000
	for _, tc := range cancellableStrategies() {
		if _, ok := tc.s.(*Tree); !ok {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			var total atomic.Int64
			f := func(id uint64) search.Search {
				// Search 5 first steps in the third pass.
				return &quitSearch{slowSearch: slowSearch{total: &total, cost: float64(id%7) + 1}, quit: id == 5}
			}
			res := tc.s.Run(f, budget)
			if !res.Cancelled || res.Solved {
				t.Errorf("Cancelled = %v, Solved = %v, want a cancelled run: %+v", res.Cancelled, res.Solved, res)
			}
			if res.Iterations != total.Load() || res.Iterations >= budget {
				t.Errorf("accounting: result reports %d iterations, searches consumed %d (budget %d)",
					res.Iterations, total.Load(), budget)
			}
		})
	}
}
