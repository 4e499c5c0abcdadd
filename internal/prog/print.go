package prog

import (
	"fmt"
	"sort"
	"strings"
)

// InputName returns the conventional name for input i: x, y, z, w for
// the first four, then in4, in5, and so on. The parser accepts these
// names and the printer emits them.
func InputName(i int) string {
	switch i {
	case 0:
		return "x"
	case 1:
		return "y"
	case 2:
		return "z"
	case 3:
		return "w"
	}
	return fmt.Sprintf("in%d", i)
}

// inputIndex is the inverse of InputName; it returns -1 for names that
// are not input names.
func inputIndex(name string) int {
	switch name {
	case "x":
		return 0
	case "y":
		return 1
	case "z":
		return 2
	case "w":
		return 3
	}
	var i int
	if n, err := fmt.Sscanf(name, "in%d", &i); err == nil && n == 1 && i >= 4 {
		return i
	}
	return -1
}

// String renders the program in the paper's textual notation. Nodes
// used more than once are bound to letters via the sharing form, e.g.
// "a = notq(x); addq(a, a)"; otherwise a plain nested expression is
// produced, e.g. "orq(andq(x, y), andq(notq(x), z))". Shared constants
// print inline at each use, and each use parses back as a node of its
// own; when that would exceed MaxBody they are bound too, so the
// output always parses.
func (p *Program) String() string {
	n := len(p.Nodes)
	// Count uses of each node among reachable nodes.
	var uses [MaxNodes]int
	mask := p.Reachable()
	for i := 0; i < n; i++ {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			uses[nd.Args[a]]++
		}
	}
	parsed := 0 // body nodes the inline print parses back to
	for i := p.NumInputs; i < n; i++ {
		switch {
		case mask&(uint64(1)<<uint(i)) == 0:
		case p.Nodes[i].Op == OpConst:
			parsed += max(1, uses[i])
		default:
			parsed++
		}
	}
	bindConsts := parsed > MaxBody
	// Assign letters to shared nodes in topological order so bindings
	// appear before their uses.
	var name [MaxNodes]string
	var bindings []string
	next := 0
	for _, i := range p.TopoOrder() {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		nd := &p.Nodes[i]
		if uses[i] > 1 && (nd.Op.IsInstruction() || bindConsts && nd.Op == OpConst) {
			nm := bindingName(next)
			next++
			bindings = append(bindings, fmt.Sprintf("%s = %s", nm, p.render(i, &name)))
			name[i] = nm
		}
	}
	root := p.render(p.Root, &name)
	if len(bindings) == 0 {
		return root
	}
	return strings.Join(bindings, "; ") + "; " + root
}

// bindingName yields a, b, ..., z, t26, t27, ... skipping the input
// names x, y, z, w would collide with: it uses a..v then tN.
func bindingName(i int) string {
	if i < 22 { // 'a'..'v': stops before 'w' to avoid input names
		return string(rune('a' + i))
	}
	return fmt.Sprintf("t%d", i)
}

// render produces the expression for node i, consulting name for
// already-bound shared nodes.
func (p *Program) render(i int32, name *[MaxNodes]string) string {
	if nm := name[i]; nm != "" {
		return nm
	}
	nd := &p.Nodes[i]
	switch nd.Op {
	case OpInput:
		return InputName(int(nd.Val))
	case OpConst:
		return FormatConst(nd.Val)
	}
	var sb strings.Builder
	sb.WriteString(nd.Op.String())
	sb.WriteByte('(')
	for a := 0; a < nd.Op.Arity(); a++ {
		if a > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.render(nd.Args[a], name))
	}
	sb.WriteByte(')')
	return sb.String()
}

// FormatConst renders a constant the way the printer and parser agree
// on: small magnitudes in signed decimal, everything else in hex.
func FormatConst(v uint64) string {
	if s := int64(v); s >= -1024 && s <= 1024 {
		return fmt.Sprintf("%d", s)
	}
	return fmt.Sprintf("%#x", v)
}

// Canon returns a canonical key for the program: the fully expanded
// expression for the root with the arguments of commutative operations
// sorted. Programs that differ only in node ordering, argument order
// of commutative operations, or duplicated-but-identical subterms map
// to the same key. The expansion is memoized per node; with the
// 16-node limit the key stays small in practice. Canon is intended for
// state bookkeeping in the Markov analysis, not for the hot loop.
func (p *Program) Canon() string {
	var memo [MaxNodes]string
	var expand func(int32) string
	expand = func(i int32) string {
		if memo[i] != "" {
			return memo[i]
		}
		nd := &p.Nodes[i]
		var s string
		switch nd.Op {
		case OpInput:
			s = InputName(int(nd.Val))
		case OpConst:
			s = FormatConst(nd.Val)
		default:
			args := make([]string, nd.Op.Arity())
			for a := range args {
				args[a] = expand(nd.Args[a])
			}
			if Commutative(nd.Op) {
				sort.Strings(args)
			}
			s = nd.Op.String() + "(" + strings.Join(args, ", ") + ")"
		}
		memo[i] = s
		return s
	}
	return expand(p.Root)
}
