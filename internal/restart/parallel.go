package restart

import (
	"context"
	"fmt"
	"sync"

	"stochsyn/internal/search"
)

// ParallelNaive runs Workers independent naive searches concurrently,
// drawing iteration grants from a shared budget pool so the total
// work never exceeds the budget. It is the multi-core counterpart of
// Naive: no restarts, first finisher wins.
//
// Unlike the tree strategies (whose concurrent executor reproduces
// the sequential schedule bit for bit), which search wins here
// depends on goroutine scheduling; iteration accounting and
// correctness do not. Result.Searches reports the number of searches
// that actually consumed budget, which can be less than Workers when
// the budget is smaller than Workers grant chunks.
type ParallelNaive struct {
	// Workers is the number of concurrent searches. Values <= 0 are
	// rejected by Run (callers decide the hardware mapping).
	Workers int
	// Chunk is the grant size drawn from the pool per request
	// (default 8192). Smaller chunks tighten the budget split across
	// workers at the price of more pool contention.
	Chunk int64
}

// Name implements Strategy.
func (p *ParallelNaive) Name() string { return "pnaive" }

// Run implements Strategy.
func (p *ParallelNaive) Run(f search.Factory, budget int64) Result {
	return p.RunContext(context.Background(), f, budget)
}

// RunContext implements Strategy. Cancelling the context closes the
// shared budget pool, which wakes any blocked workers and denies
// further grants; workers mid-grant observe the cancellation through
// their search's own context or at the next grant boundary. The
// Result counts exactly the iterations that were executed.
func (p *ParallelNaive) RunContext(ctx context.Context, f search.Factory, budget int64) Result {
	if p.Workers <= 0 {
		panic(fmt.Sprintf("restart: ParallelNaive requires positive Workers, got %d", p.Workers))
	}
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = 8192
	}
	pool := newBudgetPool(budget)
	stop := context.AfterFunc(ctx, pool.close)
	defer stop()

	type outcome struct {
		spent int64
		won   bool
		s     search.Search
	}
	outcomes := make([]outcome, p.Workers)

	// The searches are made here, in id order, so the factory is never
	// called from two goroutines at once (the search.Factory contract).
	runs := make([]search.Search, p.Workers)
	for w := range runs {
		runs[w] = f(uint64(w))
	}

	var wg sync.WaitGroup
	wg.Add(p.Workers)
	for w, run := range runs {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				grant := pool.acquire(chunk)
				if grant <= 0 {
					return
				}
				used, done := run.Step(grant)
				outcomes[w].spent += used
				pool.release(grant - used)
				if done {
					outcomes[w].won = true
					outcomes[w].s = run
					pool.close()
					return
				}
				if used < grant {
					// An early unfinished return means the search saw
					// its context cancelled; stop drawing grants.
					return
				}
			}
		}()
	}
	wg.Wait()

	var res Result
	for _, o := range outcomes {
		res.Iterations += o.spent
		if o.spent > 0 {
			res.Searches++
		}
		if o.won && res.Winner == nil {
			res.Solved = true
			res.Winner = o.s
		}
	}
	if !res.Solved && ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// budgetPool is a shared iteration budget for concurrent searches.
// Unlike a bare atomic counter, it tracks how many grants are
// outstanding: a worker that finds the pool empty while grants are
// still out blocks instead of exiting, because a partially consumed
// grant may yet be returned. This prevents budget stranding — with a
// plain counter, iterations released after the last hungry worker
// gave up were never spent.
type budgetPool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	remaining   int64
	outstanding int
	closed      bool
}

func newBudgetPool(budget int64) *budgetPool {
	p := &budgetPool{remaining: budget}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire returns a grant of up to max iterations, blocking while the
// pool is empty but grants are outstanding. It returns 0 once the
// budget is definitively exhausted or the pool is closed.
func (p *budgetPool) acquire(max int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.remaining <= 0 && p.outstanding > 0 {
		p.cond.Wait()
	}
	if p.closed || p.remaining <= 0 {
		return 0
	}
	grant := max
	if grant > p.remaining {
		grant = p.remaining
	}
	p.remaining -= grant
	p.outstanding++
	return grant
}

// release returns the unused part of a grant and retires it.
func (p *budgetPool) release(unused int64) {
	p.mu.Lock()
	p.outstanding--
	if unused > 0 {
		p.remaining += unused
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// close drains the pool, waking all waiters; used when a search has
// finished and the remaining budget is no longer needed.
func (p *budgetPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
