package plan

import (
	"runtime"
	"sync"
	"weak"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/testcase"
)

// recipe is an unbound, immutable compilation result: the tape in
// topological order plus the lowered instruction per node. Recipes
// depend on the node array, the input arity, and the suite (absint
// folding uses the suite's input facts) — not on the root, which only
// selects which finished column EvalRange returns — so programs
// differing in root alone share one recipe. Once published to the
// cache a recipe is read-only and safe to share across States and
// goroutines.
type recipe struct {
	order []int32
	ops   []compiledOp
	fused int64
}

// cacheEntry pairs the recipe with the exact shape it was compiled
// from, so a hash collision degrades to a recompile instead of a
// wrong tape. cases is the suite's case count at compile time: a
// suite grown in place since then may break the recipe's folds, so a
// State with a different count misses.
type cacheEntry struct {
	nodes     []prog.Node
	numInputs int
	cases     int
	rec       *recipe
}

// recipeCache amortizes full compiles across restarts, which re-seed
// from identical or previously seen programs constantly. Restart-tree searches reset thousands of times per
// second, so this is a hot map; the bound on shapes across all suites
// keeps a pathological never-repeating workload from growing it
// without limit.
//
// Shapes are filed per suite, because absint folding uses the suite's
// input facts and a search run evaluates against exactly one suite for
// its lifetime. A suite's cases must not change while States use it;
// one that grows by appending between States is safe, because each
// entry also records the case count it was folded for. The suite
// enters by a weak pointer, so the cache never keeps a finished job's
// suite alive: New registers a suite on its first State with a
// cleanup that drops the suite's shapes once the suite has been
// collected.
var recipeCache struct {
	mu     sync.Mutex
	suites map[weak.Pointer[testcase.Suite]]*suiteEntry
	shapes int // keys across all suites' shape maps
}

// suiteEntry is one suite's part of the cache: its shapes, and its
// input facts with the case count they were joined over. The facts
// are read-only once published and shared by every State on the suite;
// a suite grown in place gets new facts, as it gets new recipes.
type suiteEntry struct {
	shapes map[uint64][]cacheEntry
	facts  []absint.Value
	cases  int
}

const recipeCacheMax = 4096

// registerSuite returns s's cache handle, the weak pointer its shapes
// are filed under, adding s to the cache if no State has registered it,
// and s's input facts, computed only when no State has computed them
// for s's current case count.
func registerSuite(s *testcase.Suite) (weak.Pointer[testcase.Suite], []absint.Value) {
	key, n := weak.Make(s), s.Len()
	recipeCache.mu.Lock()
	ent, ok := recipeCache.suites[key]
	if !ok {
		if recipeCache.suites == nil {
			recipeCache.suites = make(map[weak.Pointer[testcase.Suite]]*suiteEntry)
		}
		ent = &suiteEntry{shapes: make(map[uint64][]cacheEntry)}
		recipeCache.suites[key] = ent
		runtime.AddCleanup(s, dropSuite, key)
	}
	facts, cases := ent.facts, ent.cases
	recipeCache.mu.Unlock()
	if facts != nil && cases == n {
		return key, facts
	}
	// Join outside the lock, like a compile: States racing here publish
	// equal facts.
	facts = absint.InputFacts(s)
	recipeCache.mu.Lock()
	ent.facts, ent.cases = facts, n
	recipeCache.mu.Unlock()
	return key, facts
}

// dropSuite removes a collected suite and its shapes from the cache.
func dropSuite(key weak.Pointer[testcase.Suite]) {
	recipeCache.mu.Lock()
	if ent, ok := recipeCache.suites[key]; ok {
		recipeCache.shapes -= len(ent.shapes)
		delete(recipeCache.suites, key)
	}
	recipeCache.mu.Unlock()
}

// shapeHash is FNV-1a over the node array and input arity.
func shapeHash(p *prog.Program) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(p.NumInputs))
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		mix(uint64(nd.Op))
		mix(uint64(uint32(nd.Args[0]))<<32 | uint64(uint32(nd.Args[1])))
		mix(nd.Val)
	}
	return h
}

// sameShape reports whether the cached entry was compiled from
// exactly this program shape.
func sameShape(e *cacheEntry, p *prog.Program) bool {
	if e.numInputs != p.NumInputs || len(e.nodes) != len(p.Nodes) {
		return false
	}
	for i := range e.nodes {
		if e.nodes[i] != p.Nodes[i] {
			return false
		}
	}
	return true
}

// lookupRecipe returns the recipe for p's shape, compiling and
// publishing it on a miss. The bool reports a cache hit.
func lookupRecipe(e *State, p *prog.Program) (*recipe, bool) {
	h := shapeHash(p)
	recipeCache.mu.Lock()
	shapes := recipeCache.suites[e.key].shapes
	for i := range shapes[h] {
		ent := &shapes[h][i]
		if ent.cases == e.ncases && sameShape(ent, p) {
			rec := ent.rec
			recipeCache.mu.Unlock()
			return rec, true
		}
	}
	recipeCache.mu.Unlock()

	// Compile outside the lock: absint analysis and lowering are the
	// expensive part, and concurrent States compiling the same shape
	// just race benignly to publish identical recipes.
	rec := e.compileFull(p)

	recipeCache.mu.Lock()
	if recipeCache.shapes >= recipeCacheMax {
		for _, ent := range recipeCache.suites {
			ent.shapes = make(map[uint64][]cacheEntry)
		}
		recipeCache.shapes = 0
	}
	// e holds its suite, so the suite's cleanup has not run and its
	// shape map is present.
	shapes = recipeCache.suites[e.key].shapes
	if _, ok := shapes[h]; !ok {
		recipeCache.shapes++
	}
	shapes[h] = append(shapes[h], cacheEntry{
		nodes:     append([]prog.Node(nil), p.Nodes...),
		numInputs: p.NumInputs,
		cases:     e.ncases,
		rec:       rec,
	})
	recipeCache.mu.Unlock()
	return rec, false
}
