package search

import (
	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
)

// This file holds the optimization-mode pieces of the search: in
// superoptimization, once a correct program is known (from scraping or
// a synthesis phase), the search continues with a size term added to
// the cost so it drifts toward smaller correct programs — the
// application STOKE popularized and the motivation for the paper's
// superoptimization benchmark. Optimization mode never "finishes";
// callers run it for a budget and take the best correct program seen.

// Best returns the smallest zero-correctness-cost program observed so
// far in MinimizeSize mode (nil if none, or if the mode is off).
func (r *Run) Best() *prog.Program { return r.best }

// noteBest records a correct program if it improves on the best size.
func (r *Run) noteBest(p *prog.Program) {
	if r.best == nil || p.BodyLen() < r.best.BodyLen() {
		r.best = p.Clone()
	}
}

// effective returns the optimization-mode cost of a program with
// correctness cost c: c plus the weighted body size.
func (r *Run) effective(c float64, p *prog.Program) float64 {
	return c + r.sizeWeight*float64(p.BodyLen())
}

// Stats counts proposals per move type over a run's lifetime:
// Proposed counts every draw, Accepted the proposals that passed the
// acceptance rule. Proposed minus Accepted includes both rejected and
// invalid proposals.
// Evaluated counts valid proposals, each of which reaches the cost
// evaluator.
type Stats struct {
	Proposed [mutate.NumMoves]int64
	Accepted [mutate.NumMoves]int64

	Evaluated int64
}

// TotalProposed sums proposals across move types.
func (s *Stats) TotalProposed() int64 {
	var t int64
	for _, n := range s.Proposed {
		t += n
	}
	return t
}

// TotalAccepted sums acceptances across move types.
func (s *Stats) TotalAccepted() int64 {
	var t int64
	for _, n := range s.Accepted {
		t += n
	}
	return t
}

// AcceptanceRate returns accepted/proposed (0 when nothing proposed).
func (s *Stats) AcceptanceRate() float64 {
	p := s.TotalProposed()
	if p == 0 {
		return 0
	}
	return float64(s.TotalAccepted()) / float64(p)
}

// MoveStats returns the run's per-move proposal statistics. Like
// Iterations, it reads the published snapshot, so it is safe to call
// from observer goroutines while the owner steps the run: values are
// exact at Step boundaries and lag by at most CancelCheckEvery
// iterations mid-Step.
func (r *Run) MoveStats() Stats {
	if s := r.pub.Load(); s != nil {
		return s.stats
	}
	return Stats{}
}
