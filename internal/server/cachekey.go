package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"stochsyn"
	"stochsyn/internal/eqsat"
	"stochsyn/internal/prog"
	"stochsyn/internal/restart"
)

// CacheKey returns the canonical cache key for running opts against
// p: a SHA-256 over the problem's exact example set and the
// normalized options. Two submissions collide exactly when a
// synthesis run could not tell them apart:
//
//   - the examples are hashed in order with explicit lengths, so no
//     two distinct suites serialize alike;
//   - options are normalized first (defaults filled in), so "empty
//     strategy" and "adaptive" share a key;
//   - Workers is excluded: the doubling-tree executor is
//     bit-identical for any worker count, so parallelism must not
//     fragment the cache.
//
// The textual strategy spec participates verbatim (after
// normalization of the empty spec), so "adaptive" and
// "adaptive:1000" hash differently even though they configure the
// same tree — a conservative choice that can only cause extra
// misses, never wrong hits.
func CacheKey(p *stochsyn.Problem, opts stochsyn.Options) (string, error) {
	o, err := opts.Normalized()
	if err != nil {
		return "", err
	}
	return hashJob("stochsyn-job-v1", p.Cases(), p.NumInputs(), o, o.Strategy), nil
}

// CanonicalCacheKey is the semantic counterpart of CacheKey: it hashes
// the job after canonicalization, so structurally distinct but
// semantically equal submissions collide. On top of CacheKey's
// normalization it:
//
//   - sorts the examples lexicographically (inputs, then output) and
//     drops exact duplicates — a synthesized program either matches an
//     example set or it doesn't, regardless of order or repetition;
//   - canonicalizes the strategy spec via restart.CanonicalSpec, so
//     "adaptive", "adaptive:1000", and "adaptive:1000:0" share a key
//     (defaults made explicit).
//
// A hit under this key returns a Result whose Program provably solves
// the submitted example set. The run counters (Iterations, Searches)
// are those of the populating run: a fresh run on a reordered suite
// could walk a different trajectory and report different counters, so
// canonical hits trade exact counter reproducibility for a higher hit
// rate on semantically identical work. Servers surface how often that
// trade fires via the cache_canonical_hits metric.
func CanonicalCacheKey(p *stochsyn.Problem, opts stochsyn.Options) (string, error) {
	o, err := opts.Normalized()
	if err != nil {
		return "", err
	}
	spec, err := restart.CanonicalSpec(o.Strategy)
	if err != nil {
		return "", err
	}
	cases := p.Cases()
	sort.Slice(cases, func(i, j int) bool { return lessCase(cases[i], cases[j]) })
	dedup := cases[:0]
	for i, c := range cases {
		if i == 0 || !equalCase(cases[i-1], c) {
			dedup = append(dedup, c)
		}
	}
	return hashJob("stochsyn-job-v2-canon", dedup, p.NumInputs(), o, spec), nil
}

// hashJob serializes one job (version tag, example set, normalized
// options with the given strategy spec) into a SHA-256 hex key.
// Options.Workers and Options.Obs are deliberately excluded: neither
// changes results.
func hashJob(version string, cases []stochsyn.Case, numInputs int, o stochsyn.Options, strategy string) string {
	h := sha256.New()
	buf := make([]byte, 8)
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		h.Write([]byte(s))
	}

	writeStr(version)
	writeU64(uint64(numInputs))
	writeU64(uint64(len(cases)))
	for _, c := range cases {
		writeU64(uint64(len(c.Inputs)))
		for _, in := range c.Inputs {
			writeU64(in)
		}
		writeU64(c.Output)
	}

	writeStr(string(o.Cost))
	writeU64(math.Float64bits(o.Beta))
	if o.Greedy {
		writeU64(1)
	} else {
		writeU64(0)
	}
	writeStr(strategy)
	writeU64(uint64(o.Budget))
	writeStr(string(o.Dialect))
	writeU64(o.Seed)

	return hex.EncodeToString(h.Sum(nil))
}

// EqSatCacheKey is the second-level, rewrite-equivalence cache key for
// expr-based submissions: it hashes the reference expression's e-class
// (eqsat.EClassHash under the default saturation budget) instead of the
// sampled example set, so two submissions whose reference expressions
// the rewrite rules can prove equal — e.g. "addq(addq(x, 1), 2)" and
// "addq(x, 3)" — collide even when their generated suites differ
// (different num_cases or case_seed, which are deliberately excluded).
//
// A hit under this key is only a candidate: the cached Program was
// synthesized against a different example set, so the scheduler
// re-verifies it against the submitted problem before serving it (a
// solved program either matches the new suite or the hit is discarded).
// Options that change what a run would produce (cost, beta, greedy,
// canonical strategy, budget, dialect, seed) participate exactly as in
// CanonicalCacheKey.
func EqSatCacheKey(expr string, numInputs int, opts stochsyn.Options) (string, error) {
	o, err := opts.Normalized()
	if err != nil {
		return "", err
	}
	spec, err := restart.CanonicalSpec(o.Strategy)
	if err != nil {
		return "", err
	}
	ref, err := prog.Parse(expr, numInputs)
	if err != nil {
		return "", err
	}
	eh, _ := eqsat.EClassHash(ref, eqsat.Budget{})
	// One synthetic "case" carries the e-class hash through the shared
	// serializer; the version tag keeps the namespace disjoint from the
	// example-set keys.
	carrier := []stochsyn.Case{{Inputs: []uint64{eh}, Output: 0}}
	return hashJob("stochsyn-job-v3-eqsat", carrier, numInputs, o, spec), nil
}

// lessCase orders examples lexicographically by inputs, then output.
func lessCase(a, b stochsyn.Case) bool {
	for i := 0; i < len(a.Inputs) && i < len(b.Inputs); i++ {
		if a.Inputs[i] != b.Inputs[i] {
			return a.Inputs[i] < b.Inputs[i]
		}
	}
	if len(a.Inputs) != len(b.Inputs) {
		return len(a.Inputs) < len(b.Inputs)
	}
	return a.Output < b.Output
}

// equalCase reports example equality.
func equalCase(a, b stochsyn.Case) bool {
	if len(a.Inputs) != len(b.Inputs) || a.Output != b.Output {
		return false
	}
	for i := range a.Inputs {
		if a.Inputs[i] != b.Inputs[i] {
			return false
		}
	}
	return true
}
