package server

import "stochsyn"

// SeedEqSat stores res in the result cache as a rewrite-equivalent
// job would have: under a canonical key of its own, indexed by eqKey.
func (s *Server) SeedEqSat(eqKey string, res stochsyn.Result) {
	s.cache.put("seeded:"+eqKey, "", eqKey, res)
}
