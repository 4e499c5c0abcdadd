package restart

import (
	"testing"

	"stochsyn/internal/obs"
)

// TestInstrumentBitIdentical runs each strategy bare and instrumented
// over the same deterministic factory and requires identical Results:
// attaching hooks must never perturb the schedule.
func TestInstrumentBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		workers int // Tree.Workers, for the concurrent executor
	}{
		{"naive", 0}, {"luby:100", 0}, {"fixed:500", 0}, {"exp:100:2", 0}, {"innerouter:100:2", 0},
		{"pluby:100", 0}, {"adaptive:100", 0}, {"adaptive:100", 4},
	} {
		spec := tc.spec
		strategy := func() Strategy {
			s := MustNew(spec)
			if tc.workers > 0 {
				s.(*Tree).Workers = tc.workers
			}
			return s
		}
		bare := strategy()
		f := fixedFactory(123_457, 900, 40_000, -1)
		want := bare.Run(f, 200_000)

		o := obs.New()
		inst := Instrument(strategy(), NewObsHooks(o.Reg, o.Tracer, bare.Name()))
		got := inst.Run(fixedFactory(123_457, 900, 40_000, -1), 200_000)

		if got.Solved != want.Solved || got.Iterations != want.Iterations ||
			got.Searches != want.Searches {
			t.Errorf("%s: instrumented Result diverged: got %+v, want %+v", spec, got, want)
			continue
		}
		// The restarts counter equals the searches actually created:
		// Result.Searches for the sequential strategies, the live count
		// (including speculative leaves planned past an early solve)
		// under the concurrent executor.
		wantRestarts := got.Searches
		if got.Exec != nil {
			wantRestarts = got.Exec.SearchesLive
		}
		c := o.Reg.Counter("stochsyn_restarts_total", "strategy", bare.Name())
		if int(c.Value()) != wantRestarts {
			t.Errorf("%s: restarts counter = %g, want %d", spec, c.Value(), wantRestarts)
		}
		// Useful iterations match the Result's accounting exactly.
		u := o.Reg.Counter("stochsyn_useful_iterations_total", "strategy", bare.Name())
		if int64(u.Value()) != got.Iterations {
			t.Errorf("%s: useful iterations = %g, want %d", spec, u.Value(), got.Iterations)
		}
	}
}

// TestInstrumentDoesNotMutate verifies Instrument copies the strategy
// rather than attaching hooks to a shared value.
func TestInstrumentDoesNotMutate(t *testing.T) {
	tree := MustNew("adaptive:100").(*Tree)
	h := NewObsHooks(obs.NewRegistry(), nil, "adaptive")
	inst := Instrument(tree, h)
	if tree.Obs != nil {
		t.Fatal("Instrument mutated the original strategy")
	}
	if inst.(*Tree).Obs != h {
		t.Fatal("Instrument did not attach the hooks to the copy")
	}
	if Instrument(tree, nil) != Strategy(tree) {
		t.Fatal("Instrument(s, nil) must return s unchanged")
	}
	n := Instrument(Naive{}, h)
	if n.(Naive).Obs != h {
		t.Fatal("Instrument did not handle the Naive value type")
	}
}

// TestTreeObsCounters checks the tree-specific series: pass counts,
// swap counts matching ExecStats, and the speculative/useful split
// summing to the executor's spend.
func TestTreeObsCounters(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := obs.New()
		h := NewObsHooks(o.Reg, o.Tracer, "adaptive")
		tree := &Tree{T0: 100, Adaptive: true, Workers: workers, Obs: h}
		// Never-finishing searches with varied costs so the adaptive
		// rule performs swaps.
		cf := &countingFactory{
			finishAt: func(uint64) int64 { return -1 },
			costOf:   func(id uint64) float64 { return float64(1 + id%7) },
		}
		res := tree.Run(cf.factory(), 100_000)

		name := func(s string) float64 {
			return o.Reg.Counter(s, "strategy", "adaptive").Value()
		}
		if got := name("stochsyn_tree_passes_total"); got < 2 {
			t.Errorf("workers=%d: passes counter = %g, want >= 2", workers, got)
		}
		if res.Exec != nil {
			if got := int64(name("stochsyn_tree_swaps_total")); got != res.Exec.Swaps {
				t.Errorf("workers=%d: swaps counter = %d, want %d", workers, got, res.Exec.Swaps)
			}
			useful := int64(name("stochsyn_useful_iterations_total"))
			spec := int64(name("stochsyn_speculated_iterations_total"))
			if useful != res.Iterations || spec != res.Exec.Speculated {
				t.Errorf("workers=%d: useful=%d spec=%d, want %d and %d",
					workers, useful, spec, res.Iterations, res.Exec.Speculated)
			}
		}
		// Cutoff histogram saw every grant: its count is at least the
		// number of searches (each new leaf runs once).
		hist := o.Reg.Histogram("stochsyn_restart_cutoff_iters", nil, "strategy", "adaptive")
		if hist.Count() < uint64(res.Searches) {
			t.Errorf("workers=%d: cutoff observations = %d < searches %d",
				workers, hist.Count(), res.Searches)
		}
	}
}
