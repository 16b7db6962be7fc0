// Two-level single-output minimization, replacing the paper's use of
// `espresso -Dso -S1`:
//   * a heuristic EXPAND / IRREDUNDANT / REDUCE loop (espresso-style) —
//     what minimize() runs by default.  EXPAND asks its "does this cube hit
//     OFF?" question of a bit-sliced OFF set (one bitset over the OFF
//     minterms per literal), so each test is a few word-wide ANDs; and
//   * an exact Quine-McCluskey + branch-and-bound covering path for
//     functions small enough to enumerate the don't-care set — opt-in via
//     MinimizeOptions::try_exact, and the oracle the tests hold the
//     heuristic against.
//
// Functions are specified by explicit ON and OFF minterm lists; everything
// else is a don't-care (exactly the situation for next-state functions
// extracted from a state graph, where unreachable codes are free).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "logic/cover.hpp"
#include "util/bitvec.hpp"

namespace mps::logic {

struct SopSpec {
  std::size_t num_vars = 0;
  std::vector<util::BitVec> on;   ///< ON-set minterms
  std::vector<util::BitVec> off;  ///< OFF-set minterms (DC = complement of both)
};

struct MinimizeOptions {
  /// Also run the exact path (when the variable count permits DC
  /// enumeration) and keep it when it has strictly fewer literals.  Off by
  /// default: on every Table-1 function it either gives up at its limits or
  /// ties the heuristic, at up to half the flow's run time.
  bool try_exact = false;
  std::size_t exact_max_vars = 14;
  std::size_t exact_max_primes = 20000;
  std::int64_t exact_max_branch_nodes = 200000;
  int heuristic_loops = 4;
};

/// Minimize; returns a prime irredundant cover of ON against OFF (cubes may
/// use the don't-care space).  The heuristic result, or with `try_exact`
/// the better of the heuristic and exact results by literal count.
Cover minimize(const SopSpec& spec, const MinimizeOptions& opts = {});

/// The espresso-style heuristic loop only.
Cover heuristic_minimize(const SopSpec& spec, int loops = 4);

/// EXPAND's question: would `cube` with the literal on `var` removed
/// contain some OFF minterm?
using WidenedHitsOff = std::function<bool(const Cube& cube, std::size_t var)>;

/// The heuristic loop with a caller-supplied EXPAND test.  heuristic_minimize
/// passes the bit-sliced one; tests pass a scalar scan of the OFF list.
Cover heuristic_minimize(const SopSpec& spec, int loops, const WidenedHitsOff& hits_off);

/// Exact Quine-McCluskey + covering.  nullopt if the instance exceeds the
/// configured limits (too many variables/primes, or the covering search
/// cut short at exact_max_branch_nodes) — never silently approximate:
/// callers fall back to the heuristic result.
std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts = {});

/// Validation (used by tests and verify::): cover contains every ON minterm
/// and no OFF minterm.
bool cover_is_valid(const SopSpec& spec, const Cover& cover);

/// Is the cube prime (no literal can be removed without hitting OFF)?
bool cube_is_prime(const SopSpec& spec, const Cube& cube);

/// Is every cube needed (dropping any uncovers some ON minterm)?
bool cover_is_irredundant(const SopSpec& spec, const Cover& cover);

}  // namespace mps::logic
