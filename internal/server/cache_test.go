package server

import (
	"fmt"
	"testing"

	"stochsyn"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(3)
	res := func(i int64) stochsyn.Result { return stochsyn.Result{Iterations: i} }

	c.put("a", "sa", "", res(1))
	c.put("b", "sb", "", res(2))
	c.put("c", "sc", "", res(3))
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}

	// Touch "a" so "b" becomes least recently used, then overflow.
	if r, sk, ok := c.get("a"); !ok || r.Iterations != 1 || sk != "sa" {
		t.Fatalf("get(a) = %+v, %q, %v", r, sk, ok)
	}
	c.put("d", "sd", "", res(4))
	if _, _, ok := c.get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, _, ok := c.get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}

	// Updating an existing key refreshes value, structural key, and
	// recency.
	c.put("c", "sc2", "", res(30))
	c.put("e", "se", "", res(5)) // evicts "a" (oldest after the gets above touched a,c,d)
	if r, sk, ok := c.get("c"); !ok || r.Iterations != 30 || sk != "sc2" {
		t.Errorf("get(c) after update = %+v, %q, %v", r, sk, ok)
	}
	if c.len() != 3 {
		t.Errorf("len = %d, want 3", c.len())
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put("a", "sa", "", stochsyn.Result{Iterations: 1})
	if _, _, ok := c.get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.len() != 0 {
		t.Errorf("disabled cache len = %d", c.len())
	}
}

// TestResultCacheEqSatIndex pins the second-level index's contract:
// solved entries are findable by rewrite-equivalence key, unsolved
// ones never are, overwrites retarget the index, and eviction removes
// the slot together with the entry.
func TestResultCacheEqSatIndex(t *testing.T) {
	c := newResultCache(2)
	solved := func(i int64) stochsyn.Result { return stochsyn.Result{Solved: true, Iterations: i} }

	c.put("a", "sa", "eq1", solved(1))
	if r, ok := c.getEq("eq1"); !ok || r.Iterations != 1 {
		t.Fatalf("getEq(eq1) = %+v, %v; want hit with Iterations=1", r, ok)
	}
	if _, ok := c.getEq(""); ok {
		t.Error(`getEq("") returned a hit; empty key must disable the lookup`)
	}
	if _, ok := c.getEq("missing"); ok {
		t.Error("getEq(missing) returned a hit")
	}

	// Unsolved results must not be indexed: a rewrite-equivalent
	// submission with a different example set could still be solvable.
	c.put("b", "sb", "eq2", stochsyn.Result{Solved: false, Iterations: 2})
	if _, ok := c.getEq("eq2"); ok {
		t.Error("unsolved result reachable through the eqsat index")
	}

	// Overwriting an entry with a new eqKey drops the stale slot.
	c.put("a", "sa2", "eq1b", solved(10))
	if _, ok := c.getEq("eq1"); ok {
		t.Error("stale eqsat slot survived an overwrite")
	}
	if r, ok := c.getEq("eq1b"); !ok || r.Iterations != 10 {
		t.Errorf("getEq(eq1b) = %+v, %v; want the overwritten entry", r, ok)
	}

	// A getEq hit refreshes recency: after touching "a" via eq1b,
	// overflowing evicts "b", and "a" stays findable both ways.
	c.put("c", "sc", "eq3", solved(3))
	if _, _, ok := c.get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	if r, ok := c.getEq("eq1b"); !ok || r.Iterations != 10 {
		t.Errorf("getEq(eq1b) after eviction = %+v, %v", r, ok)
	}

	// Evicting an indexed entry removes its slot.
	c.put("d", "sd", "eq4", solved(4)) // evicts "c" (a was just touched)
	if _, ok := c.getEq("eq3"); ok {
		t.Error("eqsat slot outlived its evicted entry")
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	p, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := stochsyn.Options{Budget: 1_000_000, Seed: 3}
	key := func(o stochsyn.Options) string {
		t.Helper()
		k, err := CacheKey(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	// Workers never fragments the cache: the executors are
	// bit-identical for any worker count.
	w := base
	w.Workers = 8
	if key(base) != key(w) {
		t.Error("Workers changed the cache key")
	}

	// Explicit defaults hash like implicit ones.
	expl := base
	expl.Cost, expl.Strategy, expl.Dialect, expl.Beta = stochsyn.Hamming, "adaptive", stochsyn.Full, 1
	if key(base) != key(expl) {
		t.Error("normalized defaults produced a different key than zero values")
	}

	// Every search-relevant knob must fragment the key.
	variants := map[string]stochsyn.Options{}
	for i, mod := range []func(*stochsyn.Options){
		func(o *stochsyn.Options) { o.Seed = 4 },
		func(o *stochsyn.Options) { o.Budget = 2_000_000 },
		func(o *stochsyn.Options) { o.Strategy = "luby" },
		func(o *stochsyn.Options) { o.Beta = 2 },
		func(o *stochsyn.Options) { o.Greedy = true },
		func(o *stochsyn.Options) { o.Cost = stochsyn.IncorrectTests },
		func(o *stochsyn.Options) { o.Dialect = stochsyn.Model },
	} {
		o := base
		mod(&o)
		variants[fmt.Sprint(i)] = o
	}
	baseKey := key(base)
	seen := map[string]string{"base": baseKey}
	for name, o := range variants {
		k := key(o)
		if k == baseKey {
			t.Errorf("variant %s produced the base key", name)
		}
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("variants %s and %s collide", name, prev)
			}
		}
		seen[name] = k
	}

	// A different problem (different cases) changes the key.
	p2, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey(p2, base)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == baseKey {
		t.Error("different problem hashed to the same key")
	}
}

// TestCanonicalCacheKeySemantics pins the semantic key's collision
// rules: example order and duplication never matter, equivalent
// strategy spellings collide, and everything that fragments the
// structural key except those two still fragments the canonical one.
func TestCanonicalCacheKeySemantics(t *testing.T) {
	cases := []stochsyn.Case{
		{Inputs: []uint64{3, 5}, Output: 6},
		{Inputs: []uint64{1, 4}, Output: 5},
		{Inputs: []uint64{0, 0}, Output: 0},
	}
	mk := func(cs []stochsyn.Case) *stochsyn.Problem {
		t.Helper()
		p, err := stochsyn.NewProblem(2, cs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := stochsyn.Options{Budget: 1_000_000, Seed: 3}
	ckey := func(p *stochsyn.Problem, o stochsyn.Options) string {
		t.Helper()
		k, err := CanonicalCacheKey(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	p := mk(cases)
	baseKey := ckey(p, base)

	// Reordered examples: canonically equal, structurally distinct.
	shuffled := mk([]stochsyn.Case{cases[2], cases[0], cases[1]})
	if ckey(shuffled, base) != baseKey {
		t.Error("reordered examples changed the canonical key")
	}
	sk1, err := CacheKey(p, base)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := CacheKey(shuffled, base)
	if err != nil {
		t.Fatal(err)
	}
	if sk1 == sk2 {
		t.Error("reordered examples did not change the structural key")
	}

	// Duplicated examples collapse.
	dup := mk(append([]stochsyn.Case{cases[1]}, cases...))
	if ckey(dup, base) != baseKey {
		t.Error("duplicated examples changed the canonical key")
	}

	// Equivalent strategy spellings collide.
	for _, spec := range []string{"adaptive", "adaptive:1000", "adaptive:1000:0"} {
		o := base
		o.Strategy = spec
		if got := ckey(p, o); got != baseKey {
			t.Errorf("strategy %q fragmented the canonical key", spec)
		}
	}

	// Semantically different knobs still fragment.
	for name, mod := range map[string]func(*stochsyn.Options){
		"seed":     func(o *stochsyn.Options) { o.Seed = 4 },
		"budget":   func(o *stochsyn.Options) { o.Budget = 2_000_000 },
		"strategy": func(o *stochsyn.Options) { o.Strategy = "luby" },
		"t0":       func(o *stochsyn.Options) { o.Strategy = "adaptive:2000" },
	} {
		o := base
		mod(&o)
		if ckey(p, o) == baseKey {
			t.Errorf("variant %s collided with the base canonical key", name)
		}
	}

	// A genuinely different example set still fragments.
	other := mk([]stochsyn.Case{cases[0], cases[1], {Inputs: []uint64{9, 9}, Output: 0}})
	if ckey(other, base) == baseKey {
		t.Error("different example set collided with the base canonical key")
	}
}
