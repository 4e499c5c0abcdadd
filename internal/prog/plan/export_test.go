package plan

import (
	"weak"

	"stochsyn/internal/testcase"
)

// CacheHoldsSuite reports whether the recipe cache has an entry for the
// suite behind key.
func CacheHoldsSuite(key weak.Pointer[testcase.Suite]) bool {
	recipeCache.mu.Lock()
	defer recipeCache.mu.Unlock()
	_, ok := recipeCache.suites[key]
	return ok
}
