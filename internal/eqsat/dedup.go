package eqsat

import (
	"sync"

	"stochsyn/internal/prog"
)

// Dedup is the rewrite-equivalence memo the restart and search layers
// share when stochsyn.Options.EqSat is on. It answers two questions:
//
//   - Seed: has a restart already started from a program in this
//     e-class? (The adaptive tree then knows the fresh leaf re-treads
//     explored territory.)
//   - Visited: has the search already wandered onto this e-class on a
//     plateau at the same (or lower) cost? If so the cost-neutral move
//     is rejected, pushing the walk toward genuinely new states.
//
// Hashing every proposal would dwarf the search loop, so plateau
// checks are sampled (one in sampleEvery cost-neutral acceptances) and
// the total number of saturations is capped; past the cap Dedup turns
// itself off and the search continues exactly as without it. All
// methods are nil-safe so call sites need no guards.
type Dedup struct {
	mu          sync.Mutex
	budget      Budget
	sampleEvery int
	maxHashes   int
	tick        int64
	plateau     map[uint64]float64
	seeds       map[uint64]bool
	stats       DedupStats
}

// DedupStats counts the memo's activity plus the aggregated e-graph
// statistics of every hash it computed.
type DedupStats struct {
	// Checks counts plateau proposals actually hashed (post-sampling);
	// Hits counts those rejected as already-visited.
	Checks int64
	Hits   int64
	// Seeds counts restart seeds hashed; SeedDups counts seeds whose
	// e-class had already started a search.
	Seeds    int64
	SeedDups int64
	// EqSat aggregates the e-graph stats across all hashes.
	EqSat Stats
}

// NewDedup returns a memo saturating under b (normalized). The
// sampling rate and saturation cap are fixed: they bound worst-case
// overhead, and since Options.EqSat deliberately changes trajectories
// there is no bit-identity contract to tune them against.
func NewDedup(b Budget) *Dedup {
	return &Dedup{
		budget:      b.normalized(),
		sampleEvery: 16,
		maxHashes:   4096,
		plateau:     make(map[uint64]float64),
		seeds:       make(map[uint64]bool),
	}
}

// Visited records a cost-neutral accepted proposal and reports whether
// its e-class was already visited at cost <= c (in which case the
// caller should reject the move). Only one in sampleEvery calls
// actually hashes; unsampled calls always report false. p may be a
// proposal under an edit journal: a sampled call hashes it as EndEdit
// will leave it, without the nodes the edit's GC found dead.
func (d *Dedup) Visited(p *prog.Program, c float64) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	if d.tick%int64(d.sampleEvery) != 0 {
		return false
	}
	if d.stats.Checks+d.stats.Seeds >= int64(d.maxHashes) {
		return false
	}
	h, st := EClassHash(p.Compacted(), d.budget)
	d.stats.EqSat.Accumulate(st)
	d.stats.Checks++
	if prev, ok := d.plateau[h]; ok && prev <= c {
		d.stats.Hits++
		return true
	}
	if prev, ok := d.plateau[h]; !ok || prev > c {
		d.plateau[h] = c
	}
	return false
}

// Seed records a restart's start program and reports whether a
// rewrite-equivalent seed already started a search.
func (d *Dedup) Seed(p *prog.Program) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stats.Checks+d.stats.Seeds >= int64(d.maxHashes) {
		return false
	}
	h, st := EClassHash(p, d.budget)
	d.stats.EqSat.Accumulate(st)
	d.stats.Seeds++
	if d.seeds[h] {
		d.stats.SeedDups++
		return true
	}
	d.seeds[h] = true
	return false
}

// Stats returns a snapshot of the memo's counters.
func (d *Dedup) Stats() DedupStats {
	if d == nil {
		return DedupStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
