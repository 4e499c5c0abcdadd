package mutate

import (
	"fmt"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
)

// debugChecks gates the post-move invariant checker. Off by default:
// the check walks the whole graph and would dominate the proposal
// cost in the search's hot loop. Enable it with SetDebugChecks (tests,
// bug hunts) or build with -tags stochsyndebug to switch it on for a
// whole binary.
var debugChecks bool

// SetDebugChecks toggles the post-move invariant gate: with it on,
// every successfully applied move re-validates the program's
// structural invariants (acyclicity, no dead code, size limits, zeroed
// unused operand slots) and panics with the offending move and program
// on a violation — a mutator bug, never a legitimate runtime state.
//
// The toggle is process-global and not synchronized; set it before
// starting searches, not while they run.
func SetDebugChecks(on bool) { debugChecks = on }

// DebugChecks reports whether the post-move invariant gate is on.
func DebugChecks() bool { return debugChecks }

// checkMove is called by ApplyMove after a move reports success. Under
// an edit journal GC defers compaction to the end of the edit, so the
// check validates the program as it will be then: the journal's dead
// nodes are treated as absent (and a live node the dead set wrongly
// names shows up as a dangling index).
func checkMove(p *prog.Program, mv Move) {
	if err := analysis.Check(p.Compacted()); err != nil {
		panic(fmt.Sprintf("mutate: %s move produced an invalid program: %v\n  program: %s", mv, err, p))
	}
}
