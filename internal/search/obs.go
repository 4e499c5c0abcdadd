package search

import (
	"stochsyn/internal/mutate"
	"stochsyn/internal/obs"
)

// NewObsHooks builds the standard set of search metrics on reg and
// wires the tracer in, returning hooks ready to attach to
// Options.Obs. The series it creates follow the repo naming scheme
// (DESIGN.md §8):
//
//	stochsyn_search_iterations_total
//	stochsyn_moves_proposed_total{move=...}
//	stochsyn_moves_accepted_total{move=...}
//	stochsyn_search_cost          (last flushed cost, any search)
//	stochsyn_search_best_cost     (process-lifetime minimum)
//	stochsyn_search_plateaus_total
//	stochsyn_eval_nodes_reevaluated_total
//	stochsyn_eval_nodes_total
//	stochsyn_eval_cases_evaluated_total
//	stochsyn_eval_cases_total
//	stochsyn_plan_compiles_total
//	stochsyn_plan_cache_hits_total
//	stochsyn_plan_patches_total
//	stochsyn_plan_fused_nodes_total
//
// All searches share these series regardless of restart id — per-search
// cardinality lives in the trace stream, not the registry. Both
// arguments are nil-safe: a nil registry yields hooks whose counter
// updates are no-ops, which lets callers wire observability
// unconditionally.
func NewObsHooks(reg *obs.Registry, tracer *obs.Tracer) *obs.SearchHooks {
	h := &obs.SearchHooks{
		Iterations:           reg.Counter("stochsyn_search_iterations_total"),
		CurCost:              reg.Gauge("stochsyn_search_cost"),
		BestCost:             reg.Gauge("stochsyn_search_best_cost"),
		Plateaus:             reg.Counter("stochsyn_search_plateaus_total"),
		EvalNodesReevaluated: reg.Counter("stochsyn_eval_nodes_reevaluated_total"),
		EvalNodesTotal:       reg.Counter("stochsyn_eval_nodes_total"),
		EvalCasesEvaluated:   reg.Counter("stochsyn_eval_cases_evaluated_total"),
		EvalCasesTotal:       reg.Counter("stochsyn_eval_cases_total"),
		PlanCompiles:         reg.Counter("stochsyn_plan_compiles_total"),
		PlanCacheHits:        reg.Counter("stochsyn_plan_cache_hits_total"),
		PlanPatches:          reg.Counter("stochsyn_plan_patches_total"),
		PlanFusedNodes:       reg.Counter("stochsyn_plan_fused_nodes_total"),
		Tracer:               tracer,
		// Cost samples arrive at flush granularity (every
		// CancelCheckEvery iterations), which is cheap enough to leave
		// on whenever a tracer is attached.
		SampleCosts: true,
	}
	h.Proposed = make([]*obs.Counter, mutate.NumMoves)
	h.Accepted = make([]*obs.Counter, mutate.NumMoves)
	for m := 0; m < mutate.NumMoves; m++ {
		name := mutate.Move(m).String()
		h.Proposed[m] = reg.Counter("stochsyn_moves_proposed_total", "move", name)
		h.Accepted[m] = reg.Counter("stochsyn_moves_accepted_total", "move", name)
	}
	reg.SetHelp("stochsyn_search_iterations_total",
		"Search loop iterations executed, flushed every CancelCheckEvery iterations.")
	reg.SetHelp("stochsyn_moves_proposed_total", "Mutation proposals drawn, by move kind.")
	reg.SetHelp("stochsyn_moves_accepted_total", "Mutation proposals accepted, by move kind.")
	reg.SetHelp("stochsyn_search_cost", "Cost at the most recent flush of any search.")
	reg.SetHelp("stochsyn_search_best_cost", "Minimum cost observed by any search in this process.")
	reg.SetHelp("stochsyn_search_plateaus_total", "Plateau entries detected by the windowed cost-delta detector.")
	reg.SetHelp("stochsyn_eval_nodes_reevaluated_total",
		"Node value columns recomputed by the incremental evaluation engine.")
	reg.SetHelp("stochsyn_eval_nodes_total",
		"Node value columns a full re-evaluation would have computed; the ratio to reevaluated is the reuse rate.")
	reg.SetHelp("stochsyn_eval_cases_evaluated_total",
		"Suite cases actually evaluated before the bounded cost sum aborted.")
	reg.SetHelp("stochsyn_eval_cases_total",
		"Suite cases a full evaluation of every proposal would have covered.")
	reg.SetHelp("stochsyn_plan_compiles_total",
		"Full evaluation-plan compiles performed by the plan engine (recipe cache misses).")
	reg.SetHelp("stochsyn_plan_cache_hits_total",
		"Full compiles avoided by re-binding a cached recipe at Reset (restarts).")
	reg.SetHelp("stochsyn_plan_patches_total",
		"Dirty tape entries re-lowered by the incremental recompile path, one per dirty node per proposal.")
	reg.SetHelp("stochsyn_plan_fused_nodes_total",
		"Nodes lowered to a fused form: constant-folded whole or compiled to an immediate-operand kernel.")
	return h
}
