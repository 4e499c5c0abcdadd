package absint

import (
	"fmt"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// Analyze runs one forward abstract-interpretation pass over p and
// returns the abstract value of every node, indexed by node id.
//
// in optionally supplies per-input facts (indexed by input index, as
// produced by InputFacts); nil or short slices default missing inputs
// to Top, which makes every derived fact universally sound — true for
// ALL inputs, the only mode under which rewrite rules may act on
// facts. Suite-derived input facts are sound only for the suite's
// example inputs and are reserved for plan folding and reporting.
//
// A program is a DAG evaluated in topological order, so one pass IS
// the dataflow fixpoint; the iterative refinement lives in the
// e-graph analysis (internal/eqsat), where congruence keeps merging
// classes.
//
// dst, when non-nil, is reused as the result slice, which keeps plan
// compilation allocation-free.
func Analyze(p *prog.Program, in []Value, dst []Value) []Value {
	n := len(p.Nodes)
	if cap(dst) < n {
		c := prog.MaxNodes
		if n > c {
			c = n
		}
		dst = make([]Value, n, c)
	}
	dst = dst[:n]
	for _, i := range p.TopoOrder() {
		nd := &p.Nodes[i]
		switch nd.Op {
		case prog.OpInput:
			if idx := int(nd.Val); idx < len(in) {
				dst[i] = in[idx].Reduce()
			} else {
				dst[i] = Top()
			}
		case prog.OpConst:
			dst[i] = Exact(nd.Val)
		default:
			a := dst[nd.Args[0]]
			b := Top()
			if nd.Op.Arity() == 2 {
				b = dst[nd.Args[1]]
			}
			dst[i] = Transfer(nd.Op, a, b)
		}
	}
	return dst
}

// InputFacts derives per-input abstract facts from a problem's
// example set: the join of the exact singletons of every case's value
// for that input. The resulting facts hold for every example case (and
// only for those), which is exactly the premise of plan folding and of
// a solution's reported facts: both speak only about the suite.
func InputFacts(s *testcase.Suite) []Value {
	in := make([]Value, s.NumInputs)
	for i := range in {
		first := true
		for _, c := range s.Cases {
			v := Exact(c.Inputs[i])
			if first {
				in[i] = v
				first = false
			} else {
				in[i] = in[i].Join(v)
			}
		}
		if first {
			in[i] = Top()
		}
		in[i] = in[i].Reduce()
	}
	return in
}

// Describe renders the non-trivial abstract facts of p's reachable
// nodes, one line per node, in node order — the representation synth
// -lint and the job API expose. Inputs and constants are skipped
// (their facts restate the node), as are nodes about which nothing is
// known.
func Describe(p *prog.Program, facts []Value) []string {
	reach := p.Reachable() | (uint64(1)<<uint(p.NumInputs) - 1)
	var out []string
	for i := range p.Nodes {
		if reach&(uint64(1)<<uint(i)) == 0 || i >= len(facts) {
			continue
		}
		op := p.Nodes[i].Op
		if !op.IsInstruction() {
			continue
		}
		s := facts[i].String()
		if s == "top" {
			continue
		}
		out = append(out, fmt.Sprintf("node %d: %s: %s", i, op, s))
	}
	return out
}
