package stochsyn

import (
	"testing"

	"stochsyn/internal/obs"
)

// TestSynthesizeWithObs verifies the end-to-end observability wiring:
// attaching an Obs sink leaves the Result bit-identical, populates the
// stochsyn_* series, and brackets the run with search_start/stop
// trace events.
func TestSynthesizeWithObs(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: "adaptive:2000", Budget: 4_000_000, Seed: 3}
	bare, err := Synthesize(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	iopts := opts
	iopts.Obs = o
	got, err := Synthesize(p, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solved != bare.Solved || got.Iterations != bare.Iterations ||
		got.Searches != bare.Searches || got.Program != bare.Program {
		t.Fatalf("observed run diverged:\ngot  %+v\nwant %+v", got, bare)
	}

	if v := o.Reg.Counter("stochsyn_search_iterations_total").Value(); int64(v) < got.Iterations {
		t.Errorf("iterations counter = %g, want >= %d", v, got.Iterations)
	}
	if v := o.Reg.Counter("stochsyn_restarts_total", "strategy", "adaptive").Value(); int(v) < got.Searches {
		t.Errorf("restarts counter = %g, want >= %d", v, got.Searches)
	}

	var sawStart, sawStop bool
	for _, ev := range o.Tracer.Events() {
		switch ev.Name {
		case "search_start":
			sawStart = true
		case "search_stop":
			sawStop = true
			if solved, _ := ev.Attrs["solved"].(bool); solved != got.Solved {
				t.Errorf("search_stop solved attr = %v, want %v", ev.Attrs["solved"], got.Solved)
			}
		}
	}
	if !sawStart || !sawStop {
		t.Errorf("missing lifecycle events: start=%v stop=%v", sawStart, sawStop)
	}
}

// TestSynthesizeParallelWithObs checks that SynthesizeParallel runs
// through the same path as Synthesize: an attached Obs sink gets the
// search and restart series and the lifecycle events, and the Result
// stays the one the bare parallel run reports.
func TestSynthesizeParallelWithObs(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return (in[0] << 1) | in[0] }, 1, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Dialect: Model, Budget: 1_000_000, Seed: 2}
	bare, err := SynthesizeParallel(p, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	opts.Obs = o
	got, err := SynthesizeParallel(p, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solved != bare.Solved || got.Iterations != bare.Iterations ||
		got.Searches != bare.Searches || got.Program != bare.Program {
		t.Fatalf("observed parallel run diverged:\ngot  %+v\nwant %+v", got, bare)
	}
	if v := o.Reg.Counter("stochsyn_search_iterations_total").Value(); v <= 0 || int64(v) < got.Iterations {
		t.Errorf("iterations counter = %g, want >= %d", v, got.Iterations)
	}
	if v := o.Reg.Counter("stochsyn_restarts_total", "strategy", "adaptive").Value(); int(v) < got.Searches {
		t.Errorf("restarts counter = %g, want >= %d", v, got.Searches)
	}
	names := map[string]bool{}
	for _, ev := range o.Tracer.Events() {
		names[ev.Name] = true
	}
	if !names["search_start"] || !names["search_stop"] {
		t.Errorf("missing lifecycle events: %v", names)
	}
}
