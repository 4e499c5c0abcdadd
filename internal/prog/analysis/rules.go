package analysis

import (
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis/absint"
)

// This file is the exported algebraic rule table. Each Rule carries a
// unique name, the opcodes it fires on, a human-readable semantics
// justification (the Reason strings the lints print), and a matcher
// over the abstract Subject interface. The same table drives three
// consumers:
//
//   - the simplifier/canonicalizer (applyOneRewrite → simplifyNode),
//   - the lint pass (LintPass reports what a rule would rewrite),
//   - the equality-saturation engine (internal/eqsat matches rules
//     against e-classes instead of program nodes).
//
// Rules are DESTRUCTIVE in the simplifier (the node is replaced) and
// ADDITIVE in eqsat (the matched class is unioned with the result), so
// every rule must be a true equivalence under the exact evalOp
// semantics — see the soundness notes at the top of simplify.go.
//
// Every rule is written as an explicit composite literal with a
// literal Name string: cmd/repolint statically checks that no two
// Rule literals share a Name, which is only possible because none are
// built by loops or constructors.

// Ref identifies an operand as seen through a Subject: a program node
// index for the simplifier/lints, an e-class id for eqsat. Two equal
// Refs always denote equal values (same node, or same e-class).
type Ref = int32

// ActionKind classifies a rule's replacement.
type ActionKind uint8

// Replacement kinds. ActNone marks "rule did not match".
const (
	ActNone  ActionKind = iota
	ActConst            // the subject equals the constant Val
	ActRef              // the subject equals the existing operand Ref
)

// Action is a rule's verdict on one subject. For ActRef the target is
// always a descendant of the subject (an argument or an argument's
// argument), so destructive application cannot create a cycle.
type Action struct {
	Kind ActionKind
	Val  uint64
	Ref  Ref
}

// Subject is one candidate node (or e-class member) a rule inspects.
// Implementations: progSubject in this package, the e-graph adapter in
// internal/eqsat.
type Subject interface {
	// Op is the subject's opcode; always one of the rule's Ops.
	Op() prog.Op
	// Arg returns the k-th operand (k < Op().Arity()).
	Arg(k int) Ref
	// Const resolves r to a constant value when its value is known.
	Const(r Ref) (uint64, bool)
	// ArgOf reports whether r is (or, for e-classes, contains) an
	// application of op, returning that application's first operand.
	ArgOf(r Ref, op prog.Op) (Ref, bool)
	// Fact returns the abstract value of r (known bits and ranges,
	// see internal/prog/analysis/absint) when the host tracks facts;
	// ok=false means nothing is known (treat as Top). Facts presented
	// here MUST be universally sound — derived with all inputs
	// unconstrained — because rules fire for every input vector.
	// Suite-derived facts (absint.InputFacts) hold only on the
	// suite's own cases, so they must never reach a rule.
	Fact(r Ref) (absint.Value, bool)
}

// Rule is one named algebraic rewrite.
type Rule struct {
	// Name uniquely identifies the rule (checked by cmd/repolint).
	Name string
	// Ops lists the opcodes the rule can fire on; the dispatch index
	// only presents subjects with these opcodes to Match.
	Ops []prog.Op
	// Reason is the semantics justification, printed by the lints.
	Reason string
	// Match inspects the subject and returns the replacement, or an
	// ActNone Action when the rule does not apply.
	Match func(s Subject) Action
}

func replaceWith(r Ref) Action     { return Action{Kind: ActRef, Ref: r} }
func replaceConst(v uint64) Action { return Action{Kind: ActConst, Val: v} }

// sameArgs reports whether both operands of a binary subject are the
// same Ref (and therefore the same value).
func sameArgs(s Subject) (Ref, bool) {
	a := s.Arg(0)
	return a, a == s.Arg(1)
}

// constArg1 matches a binary subject whose second operand is constant
// and first is not, returning (first operand, constant).
func constArg1(s Subject) (Ref, uint64, bool) {
	c, ok := s.Const(s.Arg(1))
	if !ok {
		return 0, 0, false
	}
	if _, aConst := s.Const(s.Arg(0)); aConst {
		return 0, 0, false // both constant: folding's job, not ours
	}
	return s.Arg(0), c, true
}

// constArg0 is constArg1 mirrored: first operand constant, second not.
func constArg0(s Subject) (Ref, uint64, bool) {
	c, ok := s.Const(s.Arg(0))
	if !ok {
		return 0, 0, false
	}
	if _, bConst := s.Const(s.Arg(1)); bConst {
		return 0, 0, false
	}
	return s.Arg(1), c, true
}

// constEither matches a commutative binary subject with exactly one
// constant operand on either side, returning (the other operand,
// constant). This encodes the old simplifier's "normalize the constant
// to the right" step for the commutative opcodes.
func constEither(s Subject) (Ref, uint64, bool) {
	if x, c, ok := constArg1(s); ok {
		return x, c, ok
	}
	return constArg0(s)
}

// isZext32 reports whether r is an application of an opcode whose
// result is already zero-extended to 32 bits.
func isZext32(s Subject, r Ref) bool {
	for _, op := range []prog.Op{
		prog.OpAdd32, prog.OpSub32, prog.OpMul32, prog.OpAnd32,
		prog.OpOr32, prog.OpXor32, prog.OpShl32, prog.OpShr32,
		prog.OpSar32, prog.OpNot32, prog.OpNeg32,
		prog.OpZext8, prog.OpZext16,
	} {
		if _, ok := s.ArgOf(r, op); ok {
			return true
		}
	}
	return false
}

// Rules is the algebraic rule table, in application-precedence order:
// equal-argument identities first, then constant-operand rules with
// the constant on the right (or on either side of a commutative op),
// then constant-first-operand rules, then the unary rules. RulesFor
// preserves this order per opcode, so the simplifier's historical
// precedence is unchanged.
var Rules = []Rule{
	// ---- equal arguments -------------------------------------------------
	// These hold for every value of the shared argument, including the
	// division edge cases (x % x is zero both when x == 0, by the trap
	// rule, and otherwise).
	{Name: "and-self", Ops: []prog.Op{prog.OpAnd, prog.OpMAnd}, Reason: "x & x = x",
		Match: func(s Subject) Action {
			if a, ok := sameArgs(s); ok {
				return replaceWith(a)
			}
			return Action{}
		}},
	{Name: "or-self", Ops: []prog.Op{prog.OpOr, prog.OpMOr}, Reason: "x | x = x",
		Match: func(s Subject) Action {
			if a, ok := sameArgs(s); ok {
				return replaceWith(a)
			}
			return Action{}
		}},
	{Name: "xor-self", Ops: []prog.Op{prog.OpXor, prog.OpMXor}, Reason: "x ^ x = 0",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "xorl-self", Ops: []prog.Op{prog.OpXor32}, Reason: "xorl(x, x) = 0",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "sub-self", Ops: []prog.Op{prog.OpSub}, Reason: "x - x = 0",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "subl-self", Ops: []prog.Op{prog.OpSub32}, Reason: "subl(x, x) = 0",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "eq-self", Ops: []prog.Op{prog.OpEq}, Reason: "x == x is 1",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(1)
			}
			return Action{}
		}},
	{Name: "lt-self", Ops: []prog.Op{prog.OpUlt, prog.OpSlt}, Reason: "x < x is 0",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "rem-self", Ops: []prog.Op{prog.OpRemU, prog.OpRemS}, Reason: "x % x = 0 (incl. x = 0)",
		Match: func(s Subject) Action {
			if _, ok := sameArgs(s); ok {
				return replaceConst(0)
			}
			return Action{}
		}},

	// ---- one constant operand (right, or either side when commutative) --
	{Name: "and-zero", Ops: []prog.Op{prog.OpAnd, prog.OpMAnd}, Reason: "x & 0 = 0",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "and-ones", Ops: []prog.Op{prog.OpAnd, prog.OpMAnd}, Reason: "x & ~0 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constEither(s); ok && c == ^uint64(0) {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "or-zero", Ops: []prog.Op{prog.OpOr, prog.OpMOr}, Reason: "x | 0 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constEither(s); ok && c == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "or-ones", Ops: []prog.Op{prog.OpOr, prog.OpMOr}, Reason: "x | ~0 = ~0",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && c == ^uint64(0) {
				return replaceConst(^uint64(0))
			}
			return Action{}
		}},
	{Name: "xor-zero", Ops: []prog.Op{prog.OpXor, prog.OpMXor}, Reason: "x ^ 0 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constEither(s); ok && c == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "add-zero", Ops: []prog.Op{prog.OpAdd}, Reason: "x + 0 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constEither(s); ok && c == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "sub-zero", Ops: []prog.Op{prog.OpSub}, Reason: "x - 0 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constArg1(s); ok && c == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "mul-zero", Ops: []prog.Op{prog.OpMul}, Reason: "x * 0 = 0",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "mul-one", Ops: []prog.Op{prog.OpMul}, Reason: "x * 1 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constEither(s); ok && c == 1 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "div-zero", Ops: []prog.Op{prog.OpDivU, prog.OpDivS}, Reason: "x / 0 = 0 (trap rule)",
		Match: func(s Subject) Action {
			if _, c, ok := constArg1(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "div-one", Ops: []prog.Op{prog.OpDivU, prog.OpDivS}, Reason: "x / 1 = x",
		Match: func(s Subject) Action {
			if x, c, ok := constArg1(s); ok && c == 1 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "remu-small", Ops: []prog.Op{prog.OpRemU}, Reason: "x % c = 0 for c in {0, 1}",
		Match: func(s Subject) Action {
			if _, c, ok := constArg1(s); ok && (c == 0 || c == 1) {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "rems-small", Ops: []prog.Op{prog.OpRemS}, Reason: "x rem c = 0 for c in {0, 1, -1}",
		Match: func(s Subject) Action {
			if _, c, ok := constArg1(s); ok && (c == 0 || c == 1 || c == ^uint64(0)) {
				return replaceConst(0)
			}
			return Action{}
		}},
	// x86 count masking: shifting by any multiple of 64 (including 64
	// itself) is the identity, never zero.
	{Name: "shift-identity", Ops: []prog.Op{prog.OpShl, prog.OpShr, prog.OpSar, prog.OpRol, prog.OpRor},
		Reason: "shift count masks to 0 (b & 63 == 0): identity",
		Match: func(s Subject) Action {
			if x, c, ok := constArg1(s); ok && c&63 == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "andl-zero", Ops: []prog.Op{prog.OpAnd32}, Reason: "andl(x, 0) = 0",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && uint32(c) == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "mull-zero", Ops: []prog.Op{prog.OpMul32}, Reason: "mull(x, 0) = 0",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && uint32(c) == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "orl-ones", Ops: []prog.Op{prog.OpOr32}, Reason: "orl(x, ~0) = 0xffffffff",
		Match: func(s Subject) Action {
			if _, c, ok := constEither(s); ok && uint32(c) == 0xffffffff {
				return replaceConst(0xffffffff)
			}
			return Action{}
		}},
	{Name: "ult-zero", Ops: []prog.Op{prog.OpUlt}, Reason: "x <u 0 is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg1(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "slt-min", Ops: []prog.Op{prog.OpSlt}, Reason: "x <s MinInt64 is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg1(s); ok && int64(c) == -1<<63 {
				return replaceConst(0)
			}
			return Action{}
		}},

	// ---- constant first operand ------------------------------------------
	{Name: "shift-of-zero", Ops: []prog.Op{prog.OpShl, prog.OpShr, prog.OpRol, prog.OpRor},
		Reason: "0 shifted/rotated is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "sar-of-zero", Ops: []prog.Op{prog.OpSar}, Reason: "sar of 0 is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "sar-of-ones", Ops: []prog.Op{prog.OpSar}, Reason: "sar of ~0 is ~0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && c == ^uint64(0) {
				return replaceConst(^uint64(0))
			}
			return Action{}
		}},
	{Name: "ult-of-max", Ops: []prog.Op{prog.OpUlt}, Reason: "~0 <u x is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && c == ^uint64(0) {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "slt-of-max", Ops: []prog.Op{prog.OpSlt}, Reason: "MaxInt64 <s x is 0",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && int64(c) == 1<<63-1 {
				return replaceConst(0)
			}
			return Action{}
		}},
	{Name: "zero-divided", Ops: []prog.Op{prog.OpDivU, prog.OpDivS, prog.OpRemU, prog.OpRemS},
		Reason: "0 div/rem x is 0 (incl. x = 0)",
		Match: func(s Subject) Action {
			if _, c, ok := constArg0(s); ok && c == 0 {
				return replaceConst(0)
			}
			return Action{}
		}},

	// ---- unary: involutions ----------------------------------------------
	{Name: "not-involution", Ops: []prog.Op{prog.OpNot}, Reason: "notq is an involution",
		Match: func(s Subject) Action {
			if inner, ok := s.ArgOf(s.Arg(0), prog.OpNot); ok {
				return replaceWith(inner)
			}
			return Action{}
		}},
	{Name: "neg-involution", Ops: []prog.Op{prog.OpNeg}, Reason: "negq is an involution",
		Match: func(s Subject) Action {
			if inner, ok := s.ArgOf(s.Arg(0), prog.OpNeg); ok {
				return replaceWith(inner)
			}
			return Action{}
		}},
	{Name: "bswap-involution", Ops: []prog.Op{prog.OpBswap}, Reason: "bswapq is an involution",
		Match: func(s Subject) Action {
			if inner, ok := s.ArgOf(s.Arg(0), prog.OpBswap); ok {
				return replaceWith(inner)
			}
			return Action{}
		}},
	{Name: "mnot-involution", Ops: []prog.Op{prog.OpMNot}, Reason: "not is an involution",
		Match: func(s Subject) Action {
			if inner, ok := s.ArgOf(s.Arg(0), prog.OpMNot); ok {
				return replaceWith(inner)
			}
			return Action{}
		}},

	// ---- unary: idempotent extensions ------------------------------------
	{Name: "sextb-idem", Ops: []prog.Op{prog.OpSext8}, Reason: "sextbq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpSext8); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},
	{Name: "sextw-idem", Ops: []prog.Op{prog.OpSext16}, Reason: "sextwq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpSext16); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},
	{Name: "sextl-idem", Ops: []prog.Op{prog.OpSext32}, Reason: "sextlq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpSext32); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},
	{Name: "zextb-idem", Ops: []prog.Op{prog.OpZext8}, Reason: "zextbq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpZext8); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},
	{Name: "zextw-idem", Ops: []prog.Op{prog.OpZext16}, Reason: "zextwq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpZext16); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},
	{Name: "zextl-idem", Ops: []prog.Op{prog.OpZext32}, Reason: "zextlq is idempotent",
		Match: func(s Subject) Action {
			if _, ok := s.ArgOf(s.Arg(0), prog.OpZext32); ok {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},

	// zextlq of a value that is already zero-extended to 32 bits is the
	// identity: every 32-bit operation zero-extends its result.
	{Name: "zextl-of-32bit", Ops: []prog.Op{prog.OpZext32}, Reason: "zextlq of a zero-extended value",
		Match: func(s Subject) Action {
			if isZext32(s, s.Arg(0)) {
				return replaceWith(s.Arg(0))
			}
			return Action{}
		}},

	// ---- fact-conditioned rules (abstract interpretation) ----------------
	// These fire on side conditions proved by the known-bits/interval
	// analysis (Subject.Fact). The facts are computed with all inputs
	// unconstrained, so every rewrite below holds for every input
	// vector — same soundness bar as the syntactic rules above.
	{Name: "and-redundant-mask", Ops: []prog.Op{prog.OpAnd, prog.OpMAnd},
		Reason: "known bits prove every bit the mask clears is already zero",
		Match: func(s Subject) Action {
			x, c, ok := constEither(s)
			if !ok {
				return Action{}
			}
			if f, ok := s.Fact(x); ok && ^c&^f.B.Zero == 0 {
				return replaceWith(x)
			}
			return Action{}
		}},
	{Name: "ult-decided", Ops: []prog.Op{prog.OpUlt}, Reason: "value ranges decide the unsigned comparison",
		Match: factDecided},
	{Name: "slt-decided", Ops: []prog.Op{prog.OpSlt}, Reason: "value ranges decide the signed comparison",
		Match: factDecided},
	{Name: "eq-decided", Ops: []prog.Op{prog.OpEq}, Reason: "known bits or ranges decide the equality",
		Match: factDecided},
	// Promotion of the old report-only 32-bit masked-shift lint: a
	// 32-bit shift by a count that masks to zero (b & 31 == 0) is
	// zextlq of its operand, and when known bits prove the operand's
	// high half zero, zextlq is the identity — so the whole shift is.
	{Name: "shift32-masked-zero", Ops: []prog.Op{prog.OpShl32, prog.OpShr32, prog.OpSar32},
		Reason: "count masks to 0 and known bits prove the operand fits 32 bits: identity",
		Match: func(s Subject) Action {
			_, c, ok := constArg1(s)
			if !ok || c&31 != 0 {
				return Action{}
			}
			x := s.Arg(0)
			if f, ok := s.Fact(x); ok && f.B.Zero>>32 == 0xffffffff {
				return replaceWith(x)
			}
			return Action{}
		}},
}

// factDecided resolves a comparison through the abstract transfer
// function of its own opcode: when the operand facts pin the result to
// a single value (ranges disjoint, bit conflict, both exact), the
// comparison is that constant. Both-constant operands are left to the
// constant folder, keeping the fold/lint report split clean.
func factDecided(s Subject) Action {
	if _, aConst := s.Const(s.Arg(0)); aConst {
		if _, bConst := s.Const(s.Arg(1)); bConst {
			return Action{}
		}
	}
	fa, oka := s.Fact(s.Arg(0))
	fb, okb := s.Fact(s.Arg(1))
	if !oka || !okb {
		return Action{}
	}
	if v, ok := absint.Transfer(s.Op(), fa, fb).Exact(); ok {
		return replaceConst(v)
	}
	return Action{}
}

// rulesByOp indexes Rules by opcode (an array, not a map, so dispatch
// never depends on map iteration order). Built once at package init
// from the table above; per-op order follows table order.
var rulesByOp = buildRuleIndex()

func buildRuleIndex() [prog.NumOps][]*Rule {
	var idx [prog.NumOps][]*Rule
	for i := range Rules {
		r := &Rules[i]
		for _, op := range r.Ops {
			idx[op] = append(idx[op], r)
		}
	}
	return idx
}

// RulesFor returns the rules applicable to op, in table (precedence)
// order. The returned slice is shared; callers must not mutate it.
func RulesFor(op prog.Op) []*Rule {
	if int(op) >= prog.NumOps {
		return nil
	}
	return rulesByOp[op]
}
