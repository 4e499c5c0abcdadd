package restart

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// DefaultT0 is the default base cutoff, in iterations, for the Luby
// and tree strategies. The paper does not fix t0; anything small
// relative to typical synthesis times works because the Luby schedule
// rescales itself, and this default keeps the doubling tree's memory
// footprint modest at our budgets.
const DefaultT0 = 1000

// ErrBadSpec tags every strategy-spec parse error returned by New, so
// callers can distinguish "the user wrote a bad spec" from other
// failures with errors.Is(err, ErrBadSpec) and map it to an input
// error (the HTTP API returns 400, the CLIs print a clean message).
var ErrBadSpec = errors.New("bad restart strategy spec")

// New constructs a strategy from a textual spec. Recognized forms:
//
//	naive
//	luby | luby:<t0>
//	adaptive | adaptive:<t0> | adaptive:<t0>:<maxSearches>
//	pluby | pluby:<t0> | pluby:<t0>:<maxSearches>
//	fixed:<cutoff>
//	exp | exp:<t0> | exp:<t0>:<z>
//	innerouter | innerouter:<t0> | innerouter:<t0>:<z>
//
// maxSearches 0 means unlimited. A spec never sizes the tree's worker
// pool: the caller sets Tree.Workers (stochsyn copies
// Options.Workers), so one knob, which a service can cap, decides how
// many goroutines a run starts.
//
// Malformed specs — unknown names, empty fields (trailing or doubled
// colons), surplus fields, out-of-range values — return an error
// wrapping ErrBadSpec; New never panics and never silently ignores
// part of a spec.
func New(spec string) (Strategy, error) {
	s, err := parse(spec)
	if err != nil {
		return nil, err
	}
	switch s.name {
	case "naive":
		return Naive{}, nil
	case "luby":
		return NewLuby(s.n), nil
	case "adaptive", "pluby":
		return &Tree{T0: s.n, Adaptive: s.name == "adaptive", MaxSearches: int(s.max)}, nil
	case "fixed":
		return NewFixed(s.n), nil
	case "exp":
		return NewExponential(s.n, s.z), nil
	}
	return NewInnerOuter(s.n, s.z), nil
}

// CanonicalSpec maps a strategy spec to a canonical textual form with
// every default made explicit, so that two specs with the same
// canonical form configure runs that produce identical Results:
// "adaptive", "adaptive:1000", and "adaptive:1000:0" all canonicalize
// to "adaptive:1000:0". Services use the canonical form in semantic
// cache keys where the verbatim spec would fragment the cache.
// Malformed specs return the same ErrBadSpec-wrapped errors as New.
func CanonicalSpec(spec string) (string, error) {
	s, err := parse(spec)
	if err != nil {
		return "", err
	}
	switch s.name {
	case "naive":
		return "naive", nil
	case "luby", "fixed":
		return fmt.Sprintf("%s:%d", s.name, s.n), nil
	case "adaptive", "pluby":
		return fmt.Sprintf("%s:%d:%d", s.name, s.n, s.max), nil
	}
	return fmt.Sprintf("%s:%d:%g", s.name, s.n, s.z), nil
}

// parsedSpec is a validated strategy spec with every default filled
// in: the one result New builds from and CanonicalSpec formats.
type parsedSpec struct {
	name string
	n    int64   // t0, or fixed's cutoff
	max  int64   // adaptive and pluby: the search cap
	z    float64 // exp and innerouter: the growth factor
}

// parse is the strategy grammar: it reads the spec's colon-separated
// fields in order, validating each, and rejects leftovers.
func parse(spec string) (parsedSpec, error) {
	parts := strings.Split(spec, ":")
	for i, f := range parts {
		if f == "" {
			if i == 0 {
				return parsedSpec{}, fmt.Errorf("restart: %w: empty strategy name in %q", ErrBadSpec, spec)
			}
			return parsedSpec{}, fmt.Errorf("restart: %w: empty field %d in %q (trailing or doubled colon?)", ErrBadSpec, i, spec)
		}
	}
	p := &specParser{spec: spec, args: parts[1:]}
	s := parsedSpec{name: parts[0]}
	var err error
	switch s.name {
	case "naive":
	case "luby":
		s.n, err = p.integer("t0", DefaultT0, 1)
	case "adaptive", "pluby":
		if s.n, err = p.integer("t0", DefaultT0, 1); err == nil {
			s.max, err = p.integer("search cap", 0, 0)
		}
	case "fixed":
		if len(p.args) == 0 {
			return parsedSpec{}, fmt.Errorf("restart: %w: %q: fixed requires a cutoff, e.g. fixed:10000", ErrBadSpec, spec)
		}
		s.n, err = p.integer("cutoff", 0, 1)
	case "exp", "innerouter":
		if s.n, err = p.integer("t0", DefaultT0, 1); err == nil {
			s.z, err = p.growthFloat("z", 2)
		}
	default:
		return parsedSpec{}, fmt.Errorf("restart: %w: unknown strategy %q", ErrBadSpec, s.name)
	}
	if err != nil {
		return parsedSpec{}, err
	}
	if p.next < len(p.args) {
		return parsedSpec{}, fmt.Errorf("restart: %w: %q: surplus field %q (%s takes at most %d parameters)",
			ErrBadSpec, spec, p.args[p.next], s.name, p.next)
	}
	return s, nil
}

// specParser consumes a spec's argument fields in order.
type specParser struct {
	spec string
	args []string
	next int
}

// take returns the next argument field, or ok=false when the spec
// supplied fewer fields (the parameter's default applies).
func (p *specParser) take() (string, bool) {
	if p.next >= len(p.args) {
		return "", false
	}
	f := p.args[p.next]
	p.next++
	return f, true
}

// integer reads an integer field that must be at least lo (1 or 0).
func (p *specParser) integer(what string, def, lo int64) (int64, error) {
	f, ok := p.take()
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseInt(f, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("restart: %w: bad %s %q in %q: not an integer", ErrBadSpec, what, f, p.spec)
	}
	if v < lo {
		want := "positive"
		if lo == 0 {
			want = "non-negative"
		}
		return 0, fmt.Errorf("restart: %w: bad %s in %q: must be %s, got %d", ErrBadSpec, what, p.spec, want, v)
	}
	return v, nil
}

func (p *specParser) growthFloat(what string, def float64) (float64, error) {
	f, ok := p.take()
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return 0, fmt.Errorf("restart: %w: bad %s %q in %q: not a number", ErrBadSpec, what, f, p.spec)
	}
	if v <= 1 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("restart: %w: bad %s in %q: must be a finite value > 1, got %g", ErrBadSpec, what, p.spec, v)
	}
	return v, nil
}

// MustNew is New for tests and internal tables; it panics on error.
func MustNew(spec string) Strategy {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}
