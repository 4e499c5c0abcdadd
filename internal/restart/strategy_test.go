package restart

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stochsyn/internal/search"
)

// fakeSearch finishes after a predetermined number of iterations,
// with a cost schedule that can be scripted. It implements
// search.Search for strategy unit tests.
type fakeSearch struct {
	finishAt int64 // total iterations needed to finish (-1: never)
	ran      int64
	cost     float64
}

func (f *fakeSearch) Step(budget int64) (int64, bool) {
	if f.finishAt >= 0 && f.ran >= f.finishAt {
		return 0, true
	}
	remaining := int64(1 << 62)
	if f.finishAt >= 0 {
		remaining = f.finishAt - f.ran
	}
	if budget < remaining {
		f.ran += budget
		return budget, false
	}
	f.ran += remaining
	return remaining, true
}

func (f *fakeSearch) Cost() float64 {
	if f.finishAt >= 0 && f.ran >= f.finishAt {
		return 0
	}
	return f.cost
}

// fixedFactory returns searches whose finish times cycle through the
// given schedule (id indexes it).
func fixedFactory(times ...int64) search.Factory {
	return func(id uint64) search.Search {
		return &fakeSearch{finishAt: times[int(id)%len(times)], cost: 10}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := Luby(i + 1); got != w {
			t.Errorf("Luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLubyPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Luby(0)")
		}
	}()
	Luby(0)
}

func TestPropertyLubyStructure(t *testing.T) {
	// Each element is a power of two, and the i-th element equals
	// 2^(k-1) exactly when i == 2^k - 1.
	f := func(raw uint16) bool {
		i := 1 + int(raw)%4000
		v := Luby(i)
		return v > 0 && v&(v-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Prefix sums property: among the first 2^k - 1 entries, the total
	// time is k * 2^(k-1).
	for k := 1; k <= 8; k++ {
		n := 1<<k - 1
		var sum int64
		for i := 1; i <= n; i++ {
			sum += Luby(i)
		}
		if want := int64(k) << (k - 1); sum != want {
			t.Errorf("sum of first %d Luby entries = %d, want %d", n, sum, want)
		}
	}
}

func TestNaive(t *testing.T) {
	res := Naive{}.Run(fixedFactory(500), 10_000)
	if !res.Solved || res.Iterations != 500 || res.Searches != 1 {
		t.Errorf("naive: %+v", res)
	}
	// Budget exhaustion.
	res = Naive{}.Run(fixedFactory(50_000), 10_000)
	if res.Solved || res.Iterations != 10_000 {
		t.Errorf("naive timeout: %+v", res)
	}
}

func TestFixedCutoff(t *testing.T) {
	// Searches finish at 100 except every third one at 5; cutoff 10
	// only lets the 5s finish.
	f := fixedFactory(100, 100, 5)
	res := NewFixed(10).Run(f, 100_000)
	if !res.Solved {
		t.Fatal("fixed cutoff never solved")
	}
	// Two failed 10-iteration runs plus one 5-iteration success.
	if res.Iterations != 25 || res.Searches != 3 {
		t.Errorf("fixed: %+v", res)
	}
}

func TestFixedBudgetClipsLastRun(t *testing.T) {
	res := NewFixed(100).Run(fixedFactory(-1), 250)
	if res.Solved {
		t.Fatal("unsolvable factory solved")
	}
	if res.Iterations != 250 {
		t.Errorf("consumed %d, want exactly the 250 budget", res.Iterations)
	}
	if res.Searches != 3 { // 100 + 100 + 50
		t.Errorf("ran %d searches, want 3", res.Searches)
	}
}

func TestLubyStrategySchedule(t *testing.T) {
	// With t0 = 10 and searches that never finish, cutoffs follow
	// 10*Luby: 10, 10, 20, 10, 10, 20, 40, ...
	res := NewLuby(10).Run(fixedFactory(-1), 120)
	if res.Solved {
		t.Fatal("unsolvable factory solved")
	}
	if res.Iterations != 120 {
		t.Errorf("consumed %d of 120", res.Iterations)
	}
	// 10+10+20+10+10+20+40 = 120 -> 7 searches.
	if res.Searches != 7 {
		t.Errorf("ran %d searches, want 7", res.Searches)
	}
}

func TestLubySolvesFastOutliers(t *testing.T) {
	// Most runs need 10_000; one in four finishes in 3.
	f := fixedFactory(10_000, 10_000, 10_000, 3)
	res := NewLuby(4).Run(f, 100_000)
	if !res.Solved {
		t.Fatal("luby never hit the fast search")
	}
	if res.Iterations > 100 {
		t.Errorf("luby used %d iterations, expected a quick catch", res.Iterations)
	}
}

func TestExponential(t *testing.T) {
	res := NewExponential(10, 2).Run(fixedFactory(-1), 150)
	// Cutoffs 10, 20, 40, 80: consumed 10+20+40+80=150.
	if res.Searches != 4 || res.Iterations != 150 {
		t.Errorf("exp: %+v", res)
	}
	// z = 1e19: the second cutoff, 1e19, is past MaxInt64; it saturates
	// and takes the rest of the budget.
	res = NewExponential(1, 1e19).Run(fixedFactory(-1), 150)
	if res.Searches != 2 || res.Iterations != 150 {
		t.Errorf("exp(z=1e19): %+v", res)
	}
}

func TestInnerOuterK(t *testing.T) {
	want := []int{0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4}
	for i, w := range want {
		if got := innerOuterK(i + 1); got != w {
			t.Errorf("innerOuterK(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestInnerOuterStrategy(t *testing.T) {
	res := NewInnerOuter(10, 2).Run(fixedFactory(-1), 100)
	// Cutoffs 10, 20, 10, 20, 40: 100 consumed in 5 searches.
	if res.Searches != 5 || res.Iterations != 100 {
		t.Errorf("innerouter: %+v", res)
	}
	// z = 1e19: the second cutoff saturates at MaxInt64, as for exp.
	res = NewInnerOuter(1, 1e19).Run(fixedFactory(-1), 100)
	if res.Searches != 2 || res.Iterations != 100 {
		t.Errorf("innerouter(z=1e19): %+v", res)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"fixed":      func() { NewFixed(0) },
		"luby":       func() { NewLuby(0) },
		"exp-t0":     func() { NewExponential(0, 2) },
		"exp-z":      func() { NewExponential(10, 1) },
		"innerouter": func() { NewInnerOuter(0, 2) },
		"tree":       func() { (&Tree{T0: 0}).Run(fixedFactory(1), 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegistry(t *testing.T) {
	for spec, wantName := range map[string]string{
		"naive":           "naive",
		"luby":            "luby",
		"luby:500":        "luby",
		"adaptive":        "adaptive",
		"adaptive:200":    "adaptive",
		"pluby":           "pluby",
		"fixed:1000":      "fixed(1000)",
		"exp:10:2":        "exp(z=2)",
		"innerouter:10:2": "innerouter(z=2)",
	} {
		s, err := New(spec)
		if err != nil {
			t.Errorf("New(%q): %v", spec, err)
			continue
		}
		if s.Name() != wantName {
			t.Errorf("New(%q).Name() = %q, want %q", spec, s.Name(), wantName)
		}
	}
	for _, bad := range []string{"", "bogus", "fixed", "fixed:x", "fixed:-1", "luby:x", "exp:10:0.5"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) succeeded", bad)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew("bogus")
}

func TestPropertySequentialNeverExceedsBudget(t *testing.T) {
	f := func(seed uint64, budgetRaw uint16) bool {
		budget := int64(budgetRaw)%5000 + 1
		rng := rand.New(rand.NewPCG(seed, 3))
		factory := func(id uint64) search.Search {
			return &fakeSearch{finishAt: int64(rng.IntN(2000)) + 1, cost: 5}
		}
		for _, s := range []Strategy{Naive{}, NewLuby(7), NewFixed(13), NewExponential(5, 2), NewInnerOuter(5, 2)} {
			res := s.Run(factory, budget)
			if res.Iterations > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
