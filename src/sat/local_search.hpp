// WalkSAT/GSAT-style stochastic local search — the SAT algorithm family of
// the paper's second author (Gu, "Local search for satisfiability", IEEE
// TSMC 1993, cited as [4]).  Only baseline::lavagno_synthesis calls it, as
// a first try on each class formula; it is incomplete (cannot prove UNSAT),
// so a failed search falls back to the complete solver (sat::Solver).
#pragma once

#include <cstdint>

#include "sat/cnf.hpp"

namespace mps::sat {

struct LocalSearchOptions {
  std::uint64_t seed = 1;
  std::int64_t max_flips = 100000;   ///< per try
  int max_tries = 10;                ///< random restarts
  double noise = 0.5;                ///< WalkSAT noise parameter
};

struct LocalSearchStats {
  std::int64_t flips = 0;
  int tries = 0;
  double seconds = 0.0;
};

/// Returns true and fills `*model` if a satisfying assignment was found
/// within the limits; false means "don't know".
bool walksat(const Cnf& cnf, Model* model, LocalSearchStats* stats = nullptr,
             const LocalSearchOptions& opts = {});

}  // namespace mps::sat
