package search

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/mutate"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// TestObsBitIdentical is the core instrumentation invariant: attaching
// observability hooks must not perturb the random walk. Two runs with
// the same seed — one bare, one fully instrumented with a registry and
// tracer — must visit the same programs and finish at the same
// iteration.
func TestObsBitIdentical(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	base := Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7}

	bare := New(suite, base)
	usedBare, doneBare := bare.Step(500_000)

	o := obs.New()
	inst := base
	inst.Obs = NewObsHooks(o.Reg, o.Tracer)
	run := New(suite, inst)
	used, done := run.Step(500_000)

	if used != usedBare || done != doneBare {
		t.Fatalf("instrumented run diverged: used=%d done=%v, bare used=%d done=%v",
			used, done, usedBare, doneBare)
	}
	if run.Cost() != bare.Cost() {
		t.Fatalf("cost diverged: %g vs %g", run.Cost(), bare.Cost())
	}
	if got, want := run.Program().String(), bare.Program().String(); got != want {
		t.Fatalf("program diverged:\n%s\nvs\n%s", got, want)
	}
	if run.MoveStats() != bare.MoveStats() {
		t.Fatalf("move stats diverged: %+v vs %+v", run.MoveStats(), bare.MoveStats())
	}

	// Streamed variant: tracer attached (cost sampling on) plus a live
	// SSE-style subscriber draining the event feed. Still bit-identical
	// — the push side never touches the random stream.
	so := obs.New()
	sub := so.Tracer.Subscribe(64)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()
	str := base
	str.Obs = NewObsHooks(so.Reg, so.Tracer)
	streamed := New(suite, str)
	usedStr, doneStr := streamed.Step(500_000)
	so.Tracer.Unsubscribe(sub)
	<-drained
	if usedStr != usedBare || doneStr != doneBare {
		t.Fatalf("streamed run diverged: used=%d done=%v, bare used=%d done=%v",
			usedStr, doneStr, usedBare, doneBare)
	}
	if streamed.Cost() != bare.Cost() || streamed.Program().String() != bare.Program().String() {
		t.Fatalf("streamed trajectory diverged: cost %g vs %g", streamed.Cost(), bare.Cost())
	}
	if streamed.MoveStats() != bare.MoveStats() {
		t.Fatalf("streamed move stats diverged")
	}
	// The sampled trajectory carries the monotone best-so-far envelope.
	prevBest := math.Inf(1)
	samples := 0
	for _, ev := range so.Tracer.Events() {
		if ev.Name != "search_cost" {
			continue
		}
		samples++
		best, ok := ev.Attrs["best"].(float64)
		if !ok {
			t.Fatalf("search_cost missing best attr: %+v", ev.Attrs)
		}
		if best > prevBest {
			t.Fatalf("best-so-far went up: %g then %g", prevBest, best)
		}
		if c := ev.Attrs["cost"].(float64); best > c {
			t.Fatalf("best %g above sampled cost %g", best, c)
		}
		prevBest = best
	}
	if samples == 0 {
		t.Fatal("no search_cost samples streamed")
	}

	// The registry saw the run: iteration counter matches exactly
	// (publish runs at every Step boundary).
	if got := o.Reg.Counter("stochsyn_search_iterations_total").Value(); int64(got) != used {
		t.Errorf("iterations counter = %g, want %d", got, used)
	}
	stats := run.MoveStats()
	for m := 0; m < mutate.NumMoves; m++ {
		name := mutate.Move(m).String()
		if got := o.Reg.Counter("stochsyn_moves_proposed_total", "move", name).Value(); int64(got) != stats.Proposed[m] {
			t.Errorf("proposed{%s} = %g, want %d", name, got, stats.Proposed[m])
		}
		if got := o.Reg.Counter("stochsyn_moves_accepted_total", "move", name).Value(); int64(got) != stats.Accepted[m] {
			t.Errorf("accepted{%s} = %g, want %d", name, got, stats.Accepted[m])
		}
	}
	if done {
		if got := o.Reg.Gauge("stochsyn_search_best_cost").Value(); got != 0 {
			t.Errorf("best cost gauge = %g, want 0 after solve", got)
		}
		// The solve emitted a trace event.
		found := false
		for _, ev := range o.Tracer.Events() {
			if ev.Name == "search_solved" {
				found = true
			}
		}
		if !found {
			t.Error("no search_solved event in the trace ring")
		}
	}
}

// TestSnapshotRaceFree drives a run from one goroutine while others
// hammer the exported snapshot accessors. Under -race this verifies
// the bugfix for the previously unsynchronized Iterations/MoveStats
// reads from concurrent tree-executor observers.
func TestSnapshotRaceFree(t *testing.T) {
	suite := suiteFor(t, "mulq(mulq(x, x), addq(x, y))", 2, 50)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 9})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastIters int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := r.Iterations()
				if it < lastIters {
					t.Errorf("Iterations went backwards: %d then %d", lastIters, it)
					return
				}
				lastIters = it
				s := r.MoveStats()
				// The snapshot is published atomically as one struct,
				// so cross-field invariants must hold for observers.
				if s.TotalAccepted() > s.TotalProposed() {
					t.Errorf("snapshot inconsistent: accepted %d > proposed %d",
						s.TotalAccepted(), s.TotalProposed())
					return
				}
				runtime.Gosched()
			}
		}()
	}
	var total int64
	for i := 0; i < 12; i++ {
		used, done := r.Step(CancelCheckEvery * 2)
		total += used
		if done {
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Iterations(); got != total {
		t.Fatalf("Iterations = %d after Steps totaling %d", got, total)
	}
}

// BenchmarkSearchLoop measures the hot loop with and without
// observability attached; the instrumented variant must stay within
// the ~2% overhead budget (ISSUE: flushes are amortized over
// CancelCheckEvery-iteration batches).
//
//	go test ./internal/search/ -bench SearchLoop -benchtime 2s
func BenchmarkSearchLoop(b *testing.B) {
	ref := prog.MustParse("mulq(mulq(x, x), addq(x, y))", 2)
	rng := rand.New(rand.NewPCG(100, 200))
	suite := testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) },
		2, 50, rng)
	run := func(b *testing.B, o *obs.Obs, stream bool) {
		opts := Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 1}
		switch {
		case stream:
			// The full push path: tracer with cost sampling on and a
			// live subscriber draining the feed, like an attached SSE
			// client (see obs.ServeEventStream).
			opts.Obs = NewObsHooks(o.Reg, o.Tracer)
			sub := o.Tracer.Subscribe(obs.DefaultSubscriberBuf)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range sub.Events() {
				}
			}()
			defer func() {
				o.Tracer.Unsubscribe(sub)
				<-done
			}()
		case o != nil:
			opts.Obs = NewObsHooks(o.Reg, nil) // metrics only: the server path
		}
		r := New(suite, opts)
		b.ResetTimer()
		var left = int64(b.N)
		for left > 0 {
			used, done := r.Step(left)
			left -= used
			if done {
				// Hard problem; a solve is effectively unreachable, but
				// restart deterministically if it ever happens.
				r = New(suite, opts)
			}
		}
		b.StopTimer()
	}
	b.Run("baseline", func(b *testing.B) { run(b, nil, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.New(), false) })
	b.Run("streamed", func(b *testing.B) { run(b, obs.New(), true) })
}
