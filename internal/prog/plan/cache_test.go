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
