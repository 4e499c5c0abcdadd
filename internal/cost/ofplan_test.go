package cost

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/testcase"
)

// walk is a search-shaped random walk over one plan engine: journaled
// mutator proposals against a suite whose outputs come from a random
// reference program. Odd seeds start the walk at the reference itself,
// so costs range from far off to exact and partial sums of zero occur.
type walk struct {
	suite *testcase.Suite
	e     *plan.State
	p     *prog.Program
	j     prog.Journal
	mut   *mutate.Mutator
	rng   *rand.Rand
}

func newWalk(seed uint64, ncases int) *walk {
	rng := rand.New(rand.NewPCG(seed, 0x0f9a7))
	ref := mutate.RandomProgram(seed, 2, 6)
	suite := testcase.Generate(ref.Output, 2, ncases, rng)
	w := &walk{
		suite: suite,
		e:     plan.New(suite),
		p:     mutate.RandomProgram(seed^0x5a5a, 2, 4),
		mut:   mutate.New(prog.FullSet, suite, false),
		rng:   rng,
	}
	if seed%2 == 1 {
		w.p = ref
	}
	w.e.Reset(w.p)
	return w
}

// propose applies one mutator move under the journal and starts the
// engine's proposal; false means the move was invalid and is undone.
func (w *walk) propose() bool {
	w.p.BeginEdit(&w.j)
	if _, ok := w.mut.Apply(w.p, w.rng); !ok {
		w.p.Rollback()
		return false
	}
	w.e.Begin(&w.j)
	return true
}

// settle commits the proposal when accept is set (its every case must
// have been pulled) and rolls it back otherwise.
func (w *walk) settle(accept bool) {
	if accept {
		w.e.Commit()
		w.p.EndEdit()
		return
	}
	w.e.Abort()
	w.p.Rollback()
}

// FuzzOfPlanBlocks pins OfPlan's bound-sized tape runs to OfState,
// which pulls and checks one EvalChunk at a time. On every proposal of
// a random walk, both run on the same engine against bounds that are
// negative, zero, fractional, next to the true cost, huge, infinite
// and NaN, and must return the same float64 bits and add the same
// EvalStats (cases pulled included).
//
// make ci replays the seeded corpus below (every Kind at 10, 37, 100
// and 1000 cases); `go test -fuzz FuzzOfPlanBlocks ./internal/cost`
// explores beyond it.
func FuzzOfPlanBlocks(f *testing.F) {
	for i, n := range []uint16{10, 37, 100, 1000} {
		for k := range Kinds {
			f.Add(uint64(3*i+k+1), n, uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, ncases uint16, kindSel uint8) {
		n := max(1, int(ncases)%1001)
		k := Kinds[int(kindSel)%len(Kinds)]
		w := newWalk(seed, n)
		for iter := 0; iter < 40; iter++ {
			if !w.propose() {
				continue
			}
			full := k.OfState(w.e, inf)
			bounds := []float64{
				-1, -0.5, math.Inf(-1), 0,
				full, math.Nextafter(full, math.Inf(-1)), math.Nextafter(full, inf),
				full - 1, full + 1, full - 0.5, full + 0.5, full * w.rng.Float64(),
				float64(64*n) - 0.5, float64(64 * n), 1e300, inf, math.NaN(),
			}
			for _, bound := range bounds {
				s0 := w.e.Stats()
				want := k.OfState(w.e, bound)
				s1 := w.e.Stats()
				got := k.OfPlan(w.e, bound)
				s2 := w.e.Stats()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v n=%d iter %d bound %v (cost %v): OfPlan %v, OfState %v\nprogram: %s",
						k, n, iter, bound, full, got, want, w.p)
				}
				if d1, d2 := s1.Sub(s0), s2.Sub(s1); d1 != d2 {
					t.Fatalf("%v n=%d iter %d bound %v (cost %v): OfPlan stats %+v, OfState %+v",
						k, n, iter, bound, full, d2, d1)
				}
				if full <= bound || math.IsNaN(bound) {
					if want != full {
						t.Fatalf("%v n=%d bound %v: OfState %v, cost %v", k, n, bound, want, full)
					}
				} else if !math.IsInf(want, 1) {
					t.Fatalf("%v n=%d bound %v: OfState %v, cost %v past the bound", k, n, bound, want, full)
				}
			}
			// Every case was pulled by the unbounded call, so a commit
			// is allowed whatever the last bound did.
			w.settle(w.rng.IntN(3) == 0)
		}
	})
}

// BenchmarkOfPlan times OfPlan against OfState on identical proposals
// of a search-shaped walk (bound drawn as the search draws it, β = 1
// per 100 cases), at the case counts of the perfbench workloads. Each
// proposal runs each cost function reps times back to back, in
// alternating order, so the clock's cost is amortized; the walk
// itself (mutate, Begin, Commit, Rollback) is not timed. It reports
// both per-call times and their within-run ratio ofplan/ofstate.
func BenchmarkOfPlan(b *testing.B) {
	const reps = 8
	for _, n := range []int{10, 100, 1000} {
		for _, k := range Kinds {
			b.Run(fmt.Sprintf("%s/n=%d", k, n), func(b *testing.B) {
				w := newWalk(2, n)
				beta := NormalizeBeta(1, n)
				cur := k.OfColumn(w.e.RootColumn(), w.suite)
				var planNS, stateNS time.Duration
				calls := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !w.propose() {
						continue
					}
					bound := cur - beta*math.Log(1-w.rng.Float64())
					var c float64
					t0 := time.Now()
					if i%2 == 0 {
						for r := 0; r < reps; r++ {
							c = k.OfPlan(w.e, bound)
						}
						t1 := time.Now()
						for r := 0; r < reps; r++ {
							k.OfState(w.e, bound)
						}
						planNS += t1.Sub(t0)
						stateNS += time.Since(t1)
					} else {
						for r := 0; r < reps; r++ {
							k.OfState(w.e, bound)
						}
						t1 := time.Now()
						for r := 0; r < reps; r++ {
							c = k.OfPlan(w.e, bound)
						}
						stateNS += t1.Sub(t0)
						planNS += time.Since(t1)
					}
					calls += reps
					if c <= bound {
						cur = c
					}
					w.settle(c <= bound)
				}
				if calls > 0 && stateNS > 0 {
					b.ReportMetric(float64(planNS)/float64(calls), "ofplan-ns/call")
					b.ReportMetric(float64(stateNS)/float64(calls), "ofstate-ns/call")
					b.ReportMetric(float64(planNS)/float64(stateNS), "ofplan/ofstate")
				}
			})
		}
	}
}
