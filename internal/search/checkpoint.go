package search

import (
	"encoding/json"
	"fmt"
	"io"

	"stochsyn/internal/prog"
)

// Checkpointing: a Run can be serialized mid-search and resumed later
// (or on another machine) with bit-identical behavior, because the
// search state is exactly the current program, the iteration counter,
// and the random stream position. Strategy-level state (the adaptive
// tree) is not captured; checkpoints suspend individual searches,
// which covers the common long-running naive/optimization workflows.

// checkpointJSON is the serialized search state. Programs use the
// exact JSON graph encoding (node order included) so the resumed
// random walk is bit-identical to an uninterrupted one.
type checkpointJSON struct {
	Version    int           `json:"version"`
	Program    *prog.Program `json:"program"`
	Cost       float64       `json:"cost"`
	Iterations int64         `json:"iterations"`
	Done       bool          `json:"done"`
	Solution   *prog.Program `json:"solution,omitempty"`
	Best       *prog.Program `json:"best,omitempty"`
	RNG        []byte        `json:"rng"`
}

const checkpointVersion = 1

// Checkpoint writes the run's resumable state. The caller is
// responsible for re-supplying the same suite and options on restore
// (they are part of the problem definition, not the search state).
func (r *Run) Checkpoint(w io.Writer) error {
	state, err := r.rngSrc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("search: marshal rng: %w", err)
	}
	cj := checkpointJSON{
		Version:    checkpointVersion,
		Program:    r.cur,
		Cost:       r.cost,
		Iterations: r.iters,
		Done:       r.done,
		Solution:   r.sol,
		Best:       r.best,
		RNG:        state,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cj)
}

// Restore loads a checkpoint into the run, which must have been
// created with the same suite and options as the checkpointed one.
// After Restore, Step continues the search exactly where Checkpoint
// left it.
func (r *Run) Restore(rd io.Reader) error {
	var cj checkpointJSON
	if err := json.NewDecoder(rd).Decode(&cj); err != nil {
		return fmt.Errorf("search: decode checkpoint: %w", err)
	}
	if cj.Version != checkpointVersion {
		return fmt.Errorf("search: checkpoint version %d, want %d", cj.Version, checkpointVersion)
	}
	if cj.Program == nil {
		return fmt.Errorf("search: checkpoint missing program")
	}
	if cj.Program.NumInputs != r.suite.NumInputs {
		return fmt.Errorf("search: checkpoint has %d inputs, suite has %d",
			cj.Program.NumInputs, r.suite.NumInputs)
	}
	if err := r.rngSrc.UnmarshalBinary(cj.RNG); err != nil {
		return fmt.Errorf("search: restore rng: %w", err)
	}
	r.cur = cj.Program
	if r.eng != nil {
		// The engine's committed columns must describe the restored
		// program; a full recompute rebinds them (and the mutator's
		// probe source follows the engine automatically).
		r.eng.Reset(r.cur)
	}
	r.cost = cj.Cost
	r.iters = cj.Iterations
	r.done = cj.Done
	r.sol = cj.Solution
	r.best = cj.Best
	r.trace = nil
	r.gap = 1
	r.publish() // refresh the race-free snapshot after the state swap
	return nil
}
