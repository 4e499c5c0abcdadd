package plan_test

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"weak"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// finishedSearch runs a short search on a fresh 1000-case suite and
// returns a weak pointer to the suite, which nothing else keeps.
func finishedSearch(t *testing.T) weak.Pointer[testcase.Suite] {
	ref := prog.MustParse("xorq(x, shrq(x, 1))", 1)
	suite := testcase.Generate(ref.Output, 1, 1000, rand.New(rand.NewPCG(9, 9)))
	r := search.New(suite, search.Options{Cost: cost.Hamming, Beta: 1, Seed: 4})
	r.Step(2000)
	key := weak.Make(suite)
	if !plan.CacheHoldsSuite(key) {
		t.Fatal("the search's suite is not in the recipe cache")
	}
	return key
}

// TestCacheReleasesSuite checks that the recipe cache does not keep a
// finished search's suite alive: once nothing else references it the
// suite is collected and its cache entry is dropped.
func TestCacheReleasesSuite(t *testing.T) {
	key := finishedSearch(t)
	// The entry goes in a cleanup that runs on its own goroutine after
	// the collection, so poll a bounded number of collections.
	for i := 0; i < 100 && (key.Value() != nil || plan.CacheHoldsSuite(key)); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if key.Value() != nil {
		t.Fatal("suite still reachable after the search finished")
	}
	if plan.CacheHoldsSuite(key) {
		t.Fatal("recipe cache still holds an entry for a collected suite")
	}
}

// TestCacheMissesGrownSuite grows a suite in place between two States,
// as a caller appending counterexamples would. The first State folds
// shrq(x, 63) to 0 because no case sets bit 63; that fold does not hold
// for the appended case, so the second State must compile afresh rather
// than reuse the cached recipe.
func TestCacheMissesGrownSuite(t *testing.T) {
	suite := &testcase.Suite{NumInputs: 1}
	for i := uint64(0); i < 20; i++ {
		suite.Cases = append(suite.Cases, testcase.Case{Inputs: []uint64{i * 0x0123456789abcdef >> 1}})
	}
	p := prog.MustParse("shrq(x, 63)", 1)
	plan.New(suite).Reset(p)

	x := uint64(1) << 63
	suite.Cases = append(suite.Cases, testcase.Case{Inputs: []uint64{x}, Output: p.Output([]uint64{x})})
	e := plan.New(suite)
	e.Reset(p)
	if hits := e.PlanStats().CacheHits; hits != 0 {
		t.Errorf("grown suite hit the recipe cache %d times, want 0", hits)
	}
	if got, want := e.RootColumn()[20], p.Output([]uint64{x}); got != want {
		t.Fatalf("root column on the appended case = %d, Output gives %d", got, want)
	}
}

// TestGrownSuiteRefreshesInputFacts grows a suite in place between two
// States, breaking a singleton input fact: y is 7 on every case until
// the appended one. The second State must not reuse the first State's
// input facts, or it folds y to the immediate 7 and computes the
// appended case wrong.
func TestGrownSuiteRefreshesInputFacts(t *testing.T) {
	suite := &testcase.Suite{NumInputs: 2}
	for i := uint64(0); i < 20; i++ {
		suite.Cases = append(suite.Cases, testcase.Case{Inputs: []uint64{i * 0x0123456789abcdef, 7}})
	}
	p := prog.MustParse("xorq(x, y)", 2)
	first := plan.New(suite)
	first.Reset(p)
	if first.PlanStats().FusedNodes == 0 {
		t.Fatal("the singleton fact y = 7 did not fold: the test no longer covers stale facts")
	}
	in := []uint64{3, 5}
	suite.Cases = append(suite.Cases, testcase.Case{Inputs: in, Output: p.Output(in)})
	e := plan.New(suite)
	e.Reset(p)
	if got, want := e.RootColumn()[20], p.Output(in); got != want {
		t.Fatalf("root column on the appended case = %#x, Output gives %#x", got, want)
	}
}
