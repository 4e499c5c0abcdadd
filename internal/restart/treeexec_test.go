package restart

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// dynSearch is a deterministic fake whose cost falls as it runs, so
// adaptive swap decisions change over time and the executor's
// join-point ordering is actually exercised. It satisfies the Search
// contract (full budget consumption unless finishing).
type dynSearch struct {
	id       uint64
	finishAt int64 // -1: never
	ran      int64
	base     float64
}

func (d *dynSearch) Step(budget int64) (int64, bool) {
	if d.finishAt >= 0 && d.ran >= d.finishAt {
		return 0, true
	}
	remaining := int64(1 << 62)
	if d.finishAt >= 0 {
		remaining = d.finishAt - d.ran
	}
	if budget < remaining {
		d.ran += budget
		return budget, false
	}
	d.ran += remaining
	return remaining, true
}

func (d *dynSearch) Cost() float64 {
	if d.finishAt >= 0 && d.ran >= d.finishAt {
		return 0
	}
	return d.base / (1 + float64(d.ran)/64)
}

// dynFactory builds a deterministic factory: everything about search
// id is a pure function of (seed, id), as the Factory contract
// requires.
func dynFactory(seed uint64) search.Factory {
	return func(id uint64) search.Search {
		rng := rand.New(rand.NewPCG(seed, id))
		finish := int64(-1)
		if rng.IntN(4) == 0 {
			finish = int64(200 + rng.IntN(20000))
		}
		return &dynSearch{id: id, finishAt: finish, base: float64(1 + rng.IntN(97))}
	}
}

// winnerID extracts the fake winner's id (-1 when unsolved).
func winnerID(res Result) int64 {
	if w, ok := res.Winner.(*dynSearch); ok {
		return int64(w.id)
	}
	return -1
}

func requireEqualResults(t *testing.T, name string, seq, conc Result) {
	t.Helper()
	if seq.Solved != conc.Solved || seq.Iterations != conc.Iterations || seq.Searches != conc.Searches {
		t.Errorf("%s: concurrent executor diverged from sequential oracle:\n  sequential %+v\n  concurrent %+v",
			name, seq, conc)
	}
	if ws, wc := winnerID(seq), winnerID(conc); ws != wc {
		t.Errorf("%s: winner diverged: sequential id %d, concurrent id %d", name, ws, wc)
	}
}

func TestTreeExecMatchesSequentialOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		adaptive bool
		t0       int64
		max      int
		budget   int64
		workers  int
		seed     uint64
	}{
		{"pluby-small", false, 7, 0, 999, 2, 1},
		{"pluby-mid", false, 100, 0, 77_777, 3, 2},
		{"pluby-capped", false, 10, 24, 50_000, 8, 3},
		{"adaptive-small", true, 7, 0, 999, 2, 4},
		{"adaptive-mid", true, 100, 0, 77_777, 8, 5},
		{"adaptive-large", true, 50, 0, 300_000, 8, 6},
		{"adaptive-capped", true, 10, 24, 120_000, 4, 7},
		{"adaptive-tiny-budget", true, 1000, 0, 500, 8, 8},
		{"adaptive-exact-t0", true, 1000, 0, 1000, 8, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := (&Tree{T0: tc.t0, Adaptive: tc.adaptive, MaxSearches: tc.max}).
				Run(dynFactory(tc.seed), tc.budget)
			conc := (&Tree{T0: tc.t0, Adaptive: tc.adaptive, MaxSearches: tc.max, Workers: tc.workers}).
				Run(dynFactory(tc.seed), tc.budget)
			requireEqualResults(t, tc.name, seq, conc)
			if seq.Exec != nil {
				t.Error("sequential oracle reported executor stats")
			}
			if conc.Exec == nil {
				t.Fatal("concurrent executor reported no stats")
			}
		})
	}
}

func TestTreeExecPropertyEquivalence(t *testing.T) {
	f := func(seed uint64, budgetRaw uint16, adaptive bool) bool {
		budget := int64(budgetRaw)%30_000 + 1
		t0 := int64(seed%37) + 1
		workers := 2 + int(seed/37%3)
		maxSearches := 0 // no cap for half the seeds
		if seed/111%2 == 1 {
			maxSearches = int(seed/222%20) + 1
		}
		seq := (&Tree{T0: t0, Adaptive: adaptive, MaxSearches: maxSearches}).Run(dynFactory(seed), budget)
		conc := (&Tree{T0: t0, Adaptive: adaptive, MaxSearches: maxSearches, Workers: workers}).
			Run(dynFactory(seed), budget)
		if seq.Solved != conc.Solved || seq.Iterations != conc.Iterations ||
			seq.Searches != conc.Searches || winnerID(seq) != winnerID(conc) {
			t.Logf("t0 %d, MaxSearches %d, workers %d: sequential %+v, concurrent %+v",
				t0, maxSearches, workers, seq, conc)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTreeExecDeterministicAcrossRuns(t *testing.T) {
	// Two concurrent executions with the same factory seed must agree
	// with each other (not only with the oracle), whatever the
	// goroutine interleaving.
	run := func() Result {
		return (&Tree{T0: 25, Adaptive: true, Workers: 6}).Run(dynFactory(99), 200_000)
	}
	a, b := run(), run()
	requireEqualResults(t, "repeat", a, b)
}

// modelFactory builds real synthesis searches on the Section 4 model
// dialect for the paper's or(shl(x), x) problem.
func modelFactory(seed uint64) search.Factory {
	rng := rand.New(rand.NewPCG(11, 17))
	suite := testcase.Generate(testcase.Func(func(in []uint64) uint64 {
		return (in[0] << 1) | in[0]
	}), 1, 16, rng)
	return search.NewFactory(suite, search.Options{
		Set:        prog.ModelSet,
		Cost:       cost.Hamming,
		Beta:       1,
		Redundancy: true,
		Seed:       seed,
	})
}

func TestTreeExecMatchesOracleOnModelDialect(t *testing.T) {
	budget := int64(250_000)
	if testing.Short() {
		budget = 60_000
	}
	for _, adaptive := range []bool{true, false} {
		name := "pluby"
		if adaptive {
			name = "adaptive"
		}
		for _, seed := range []uint64{2, 3} {
			seq := (&Tree{T0: 300, Adaptive: adaptive}).Run(modelFactory(seed), budget)
			conc := (&Tree{T0: 300, Adaptive: adaptive, Workers: 4}).Run(modelFactory(seed), budget)
			requireEqualResults(t, name, seq, conc)
			if seq.Solved {
				sp := seq.Winner.(*search.Run).Solution().String()
				cp := conc.Winner.(*search.Run).Solution().String()
				if sp != cp {
					t.Errorf("%s seed %d: winning programs diverged: %q vs %q", name, seed, sp, cp)
				}
			}
		}
	}
}

func TestTreeExecStatsConsistent(t *testing.T) {
	budget := int64(150_000)
	res := (&Tree{T0: 20, Adaptive: true, Workers: 4}).Run(dynFactory(6), budget)
	st := res.Exec
	if st == nil {
		t.Fatal("no exec stats")
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d", st.Workers)
	}
	if st.Passes < 1 {
		t.Errorf("Passes = %d", st.Passes)
	}
	if st.BudgetSpent < res.Iterations {
		t.Errorf("BudgetSpent %d < accounted Iterations %d", st.BudgetSpent, res.Iterations)
	}
	if st.BudgetSpent > budget {
		t.Errorf("BudgetSpent %d exceeds budget %d", st.BudgetSpent, budget)
	}
	if st.Speculated != st.BudgetSpent-res.Iterations {
		t.Errorf("Speculated %d inconsistent with spent %d - iterations %d",
			st.Speculated, st.BudgetSpent, res.Iterations)
	}
	if st.BudgetStranded != budget-st.BudgetSpent {
		t.Errorf("BudgetStranded %d, want %d", st.BudgetStranded, budget-st.BudgetSpent)
	}
	if st.SearchesLive < res.Searches {
		t.Errorf("SearchesLive %d < accounted Searches %d", st.SearchesLive, res.Searches)
	}
	if st.Utilization < 0 || st.Utilization > 1.001 {
		t.Errorf("Utilization %g out of range", st.Utilization)
	}
	if res.Solved && st.Swaps == 0 && st.Steps > 50 {
		t.Log("note: adaptive run performed no swaps (legal but unusual)")
	}
}

func TestTreeExecRespectsBudget(t *testing.T) {
	for _, budget := range []int64{1, 7, 100, 12345} {
		res := (&Tree{T0: 10, Adaptive: true, Workers: 4}).Run(fixedFactory(-1), budget)
		if res.Iterations > budget {
			t.Errorf("budget %d exceeded: %d", budget, res.Iterations)
		}
		if res.Solved {
			t.Error("unsolvable factory solved")
		}
		if res.Exec != nil && res.Exec.BudgetSpent > budget {
			t.Errorf("budget %d: executor spent %d", budget, res.Exec.BudgetSpent)
		}
	}
}

// TestTreeExecFactoryCalledInOrder pins the search.Factory contract:
// the concurrent executor calls the factory from one goroutine at a
// time, in increasing id order, so a factory may record the searches
// it makes without locking. Run under -race, the unsynchronized append
// below is itself the check for the first half.
func TestTreeExecFactoryCalledInOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    search.Factory
	}{
		{"early-solves", dynFactory(3)},
		{"never-solves", fixedFactory(-1)},
	} {
		for _, adaptive := range []bool{false, true} {
			var ids []uint64
			f := func(id uint64) search.Search {
				ids = append(ids, id)
				return tc.f(id)
			}
			res := (&Tree{T0: 7, Adaptive: adaptive, Workers: 4}).Run(f, 50_000)
			if len(ids) != res.Exec.SearchesLive {
				t.Errorf("%s adaptive=%v: factory called %d times, SearchesLive %d",
					tc.name, adaptive, len(ids), res.Exec.SearchesLive)
			}
			for i, id := range ids {
				if id != uint64(i) {
					t.Fatalf("%s adaptive=%v: call %d got id %d; ids %v", tc.name, adaptive, i, id, ids)
				}
			}
		}
	}
}

// stepCall names one Step call: the search's id and the call's
// 1-based ordinal on that search.
type stepCall struct {
	id   uint64
	call int
}

// gateSearch never finishes and costs the same as every other, so the
// adaptive rule never swaps it. It reports each Step call on started
// (when set) and blocks the call named gate until hold is closed.
type gateSearch struct {
	id      uint64
	calls   int
	started chan<- stepCall
	gate    stepCall
	hold    <-chan struct{}
}

func (g *gateSearch) Step(budget int64) (int64, bool) {
	g.calls++
	c := stepCall{g.id, g.calls}
	if g.started != nil {
		g.started <- c
	}
	if c == g.gate {
		<-g.hold
	}
	return budget, false
}

func (g *gateSearch) Cost() float64 { return 1 }

// TestTreeExecOverlapsPasses holds the root's pass-2 step open and
// requires a pass-3 leaf step to start before it finishes: an
// operation waits on the tree nodes it touches, not on the end of the
// previous pass.
func TestTreeExecOverlapsPasses(t *testing.T) {
	const budget = 64 // with t0 = 1, also the most Step calls a run makes
	// The wait has no wall-clock bound of its own. A correct executor
	// starts both steps on every schedule, however loaded the machine;
	// one that joins passes never starts the pass-3 step, and is
	// reported when most of the test binary's time is gone, before its
	// timeout would panic.
	ctx := context.Background()
	if d, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Until(d)*9/10))
		defer cancel()
	}
	for _, adaptive := range []bool{false, true} {
		// No swap ever moves a search, so search 0 stays at the root
		// and its second Step call is the root's pass-2 step. Searches
		// 1 and 2 sprout in pass 2; 3 and up in pass 3.
		root2 := stepCall{id: 0, call: 2}
		started := make(chan stepCall, budget)
		hold := make(chan struct{})
		f := func(id uint64) search.Search {
			return &gateSearch{id: id, started: started, gate: root2, hold: hold}
		}
		done := make(chan Result, 1)
		go func() { done <- (&Tree{T0: 1, Adaptive: adaptive, Workers: 2}).Run(f, budget) }()

		// The pass-3 step may start before or after the root's pass-2
		// step does (under Adaptive the latter waits on two swaps); it
		// overlaps pass 2 either way, since the held step cannot finish
		// until hold is closed.
		held, sprouted := false, false
	wait:
		for !held || !sprouted {
			select {
			case c := <-started:
				held = held || c == root2
				sprouted = sprouted || c.id >= 3
			case <-ctx.Done():
				break wait
			}
		}
		close(hold)
		got := <-done
		if !held || !sprouted {
			t.Errorf("adaptive=%v: no pass-3 step started before the root's held pass-2 step finished (root held: %v)",
				adaptive, held)
		}
		want := (&Tree{T0: 1, Adaptive: adaptive}).Run(func(id uint64) search.Search {
			return &gateSearch{id: id}
		}, budget)
		requireEqualResults(t, "overlap", want, got)
	}
}

// specSearch is a fake for the early-solve exit test. Search 3, the
// first leaf of pass 3, finishes on its first step; search 4, the next
// leaf, is speculative once 3 has won. With gating, 3 returns only
// after 4's first step has started, and 4's step outlasts 3's, so the
// run settles while a speculative step is in flight.
type specSearch struct {
	id          uint64
	ran         int64
	gated       bool
	specStarted chan struct{}
	specDone    chan struct{}
}

func (s *specSearch) Step(budget int64) (int64, bool) {
	if s.id == 3 {
		if s.gated {
			<-s.specStarted
		}
		s.ran++
		return 1, true
	}
	if s.id == 4 && s.gated && s.ran == 0 {
		close(s.specStarted)
		time.Sleep(20 * time.Millisecond)
		close(s.specDone)
	}
	s.ran += budget
	return budget, false
}

func (s *specSearch) Cost() float64 {
	if s.id == 3 && s.ran > 0 {
		return 0
	}
	return 1
}

// TestTreeExecEarlySolveExit solves while a speculative step is in
// flight. RunContext must wait for that step, return the sequential
// oracle's Result, and leave no goroutine behind.
func TestTreeExecEarlySolveExit(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, adaptive := range []bool{false, true} {
		want := (&Tree{T0: 1, Adaptive: adaptive}).Run(func(id uint64) search.Search {
			return &specSearch{id: id}
		}, 1000)
		if w, ok := want.Winner.(*specSearch); !ok || w.id != 3 {
			t.Fatalf("adaptive=%v: oracle winner %+v, want search 3", adaptive, want)
		}
		for i := 0; i < 3; i++ {
			specStarted, specDone := make(chan struct{}), make(chan struct{})
			got := (&Tree{T0: 1, Adaptive: adaptive, Workers: 2}).RunContext(context.Background(),
				func(id uint64) search.Search {
					return &specSearch{id: id, gated: true, specStarted: specStarted, specDone: specDone}
				}, 1000)
			select {
			case <-specDone:
			default:
				t.Errorf("adaptive=%v: RunContext returned while a speculative step was running", adaptive)
			}
			if got.Solved != want.Solved || got.Iterations != want.Iterations || got.Searches != want.Searches {
				t.Errorf("adaptive=%v: concurrent %+v, sequential %+v", adaptive, got, want)
			}
			if w, ok := got.Winner.(*specSearch); !ok || w.id != 3 {
				t.Errorf("adaptive=%v: winner %+v, want search 3", adaptive, got.Winner)
			}
			if got.Exec.Speculated <= 0 {
				t.Errorf("adaptive=%v: Speculated = %d, want the speculative step counted", adaptive, got.Exec.Speculated)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after early-solve runs", before, n)
	}
}
