package restart

import (
	"errors"
	"strings"
	"testing"
)

func TestNewValidSpecs(t *testing.T) {
	tests := []struct {
		spec string
		name string // expected Strategy.Name()
		chk  func(t *testing.T, s Strategy)
	}{
		{spec: "naive", name: "naive"},
		{spec: "luby", name: "luby"},
		{spec: "luby:500", name: "luby"},
		{spec: "adaptive", name: "adaptive", chk: func(t *testing.T, s Strategy) {
			tr := s.(*Tree)
			if tr.T0 != DefaultT0 || !tr.Adaptive || tr.MaxSearches != 0 || tr.Workers != 0 {
				t.Errorf("adaptive defaults: %+v", tr)
			}
		}},
		{spec: "adaptive:250", name: "adaptive", chk: func(t *testing.T, s Strategy) {
			if tr := s.(*Tree); tr.T0 != 250 {
				t.Errorf("T0 = %d, want 250", tr.T0)
			}
		}},
		{spec: "adaptive:250:64", name: "adaptive", chk: func(t *testing.T, s Strategy) {
			if tr := s.(*Tree); tr.MaxSearches != 64 {
				t.Errorf("MaxSearches = %d, want 64", tr.MaxSearches)
			}
		}},
		{spec: "pluby:100:10", name: "pluby", chk: func(t *testing.T, s Strategy) {
			if tr := s.(*Tree); tr.Adaptive || tr.MaxSearches != 10 || tr.Workers != 0 {
				t.Errorf("pluby spec parsed wrong: %+v", tr)
			}
		}},
		{spec: "fixed:10000", name: "fixed(10000)"},
		{spec: "exp", name: "exp(z=2)"},
		{spec: "exp:100", name: "exp(z=2)"},
		{spec: "exp:100:1.5", name: "exp(z=1.5)"},
		{spec: "innerouter:100:3", name: "innerouter(z=3)"},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			s, err := New(tt.spec)
			if err != nil {
				t.Fatalf("New(%q): %v", tt.spec, err)
			}
			if s.Name() != tt.name {
				t.Errorf("Name() = %q, want %q", s.Name(), tt.name)
			}
			if tt.chk != nil {
				tt.chk(t, s)
			}
		})
	}
}

func TestNewMalformedSpecs(t *testing.T) {
	tests := []struct {
		spec string
		frag string // substring expected in the error message
	}{
		// Unknown names and empty fields.
		{"", "empty strategy name"},
		{"bogus", "unknown strategy"},
		{":100", "empty strategy name"},
		{"adaptive:", "trailing or doubled colon"},
		{"adaptive::4", "trailing or doubled colon"},
		{"luby:1000:", "trailing or doubled colon"},
		{"fixed:", "trailing or doubled colon"},
		// Missing required fields.
		{"fixed", "requires a cutoff"},
		// Non-numeric and out-of-range values.
		{"luby:abc", "not an integer"},
		{"luby:0", "must be positive"},
		{"luby:-3", "must be positive"},
		{"adaptive:-1", "must be positive"},
		{"adaptive:100:-1", "must be non-negative"},
		{"fixed:0", "must be positive"},
		{"fixed:-5", "must be positive"},
		{"fixed:1e6", "not an integer"},
		{"exp:100:1", "must be a finite value > 1"},
		{"exp:100:0.5", "must be a finite value > 1"},
		{"exp:100:+Inf", "must be a finite value > 1"},
		{"exp:100:NaN", "must be a finite value > 1"},
		{"innerouter:100:z", "not a number"},
		{"luby:99999999999999999999", "not an integer"}, // int64 overflow
		// Surplus fields (previously ignored silently).
		{"naive:5", "surplus field"},
		{"luby:1000:7", "surplus field"},
		{"fixed:100:100", "surplus field"},
		{"exp:100:2:3", "surplus field"},
		{"innerouter:100:2:3", "surplus field"},
		// The tree's worker count is Tree.Workers, never a spec field.
		{"adaptive:250:0:8", "surplus field"},
		{"adaptive:100:0:-2", "surplus field"},
		{"adaptive:100:0:two", "surplus field"},
		{"adaptive:100:0:4:9", "surplus field"},
		{"pluby:100:10:2", "surplus field"},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("New(%q) panicked: %v", tt.spec, p)
				}
			}()
			s, err := New(tt.spec)
			if err == nil {
				t.Fatalf("New(%q) = %v (%s), want error", tt.spec, s, s.Name())
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("New(%q) error does not wrap ErrBadSpec: %v", tt.spec, err)
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("New(%q) error %q does not mention %q", tt.spec, err, tt.frag)
			}
		})
	}
}

// TestCanonicalSpecPinned pins CanonicalSpec's exact output: services
// key result caches and shard jobs on it, so a spec that was accepted
// before must keep its canonical string.
func TestCanonicalSpecPinned(t *testing.T) {
	for _, tt := range []struct{ spec, want string }{
		{"naive", "naive"},
		{"luby", "luby:1000"},
		{"luby:1", "luby:1"},
		{"luby:500", "luby:500"},
		{"luby:1000", "luby:1000"},
		{"luby:+5", "luby:5"},
		{"adaptive", "adaptive:1000:0"},
		{"adaptive:1000", "adaptive:1000:0"},
		{"adaptive:1000:0", "adaptive:1000:0"},
		{"adaptive:250", "adaptive:250:0"},
		{"adaptive:250:64", "adaptive:250:64"},
		{"adaptive:10:32", "adaptive:10:32"},
		{"adaptive:0100", "adaptive:100:0"},
		{"pluby", "pluby:1000:0"},
		{"pluby:100", "pluby:100:0"},
		{"pluby:100:10", "pluby:100:10"},
		{"pluby:500:32", "pluby:500:32"},
		{"pluby:1:+0", "pluby:1:0"},
		{"fixed:1", "fixed:1"},
		{"fixed:007", "fixed:7"},
		{"fixed:10000", "fixed:10000"},
		{"fixed:9223372036854775807", "fixed:9223372036854775807"},
		{"exp", "exp:1000:2"},
		{"exp:100", "exp:100:2"},
		{"exp:100:1.5", "exp:100:1.5"},
		{"exp:100:2e0", "exp:100:2"},
		{"exp:1:1e19", "exp:1:1e+19"},
		{"exp:10:2", "exp:10:2"},
		{"exp:7:2.000", "exp:7:2"},
		{"exp:7:1.0000001", "exp:7:1.0000001"},
		{"exp:3:1e300", "exp:3:1e+300"},
		{"exp:5:0x1p1", "exp:5:2"},
		{"innerouter", "innerouter:1000:2"},
		{"innerouter:100:3", "innerouter:100:3"},
		{"innerouter:10:2", "innerouter:10:2"},
		{"innerouter:1:1.25", "innerouter:1:1.25"},
	} {
		got, err := CanonicalSpec(tt.spec)
		if err != nil || got != tt.want {
			t.Errorf("CanonicalSpec(%q) = %q, %v; want %q", tt.spec, got, err, tt.want)
		}
		if _, err := New(tt.spec); err != nil {
			t.Errorf("New(%q): %v", tt.spec, err)
		}
	}
	for _, bad := range []string{"adaptive:1000:0:8", "pluby:100:10:2", "luby:0", "bogus"} {
		if _, err := CanonicalSpec(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("CanonicalSpec(%q) error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}
