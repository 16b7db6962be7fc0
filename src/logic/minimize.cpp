#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/common.hpp"

namespace mps::logic {

namespace {

bool cube_hits_off(const Cube& cube, const std::vector<util::BitVec>& off) {
  for (const auto& code : off) {
    if (cube.contains_code(code.words())) return true;
  }
  return false;
}

/// The OFF set sliced by literal: slice (v, b) is a bitset over OFF indices
/// with bit j set iff off[j][v] == b.  OFF minterm j lies in a cube iff bit
/// j is set in the slice of every literal of the cube, so "cube hits OFF" is
/// the AND of its literals' slices, tested for non-zero.  Built once per
/// heuristic_minimize call: 2·num_vars·|OFF| bits.
class OffSlices {
 public:
  explicit OffSlices(const SopSpec& spec)
      : num_vars_(spec.num_vars),
        words_((spec.off.size() + 63) / 64),
        last_word_mask_(spec.off.size() % 64 == 0
                            ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (spec.off.size() % 64)) - 1),
        slices_(2 * spec.num_vars * words_, 0) {
    for (std::size_t j = 0; j < spec.off.size(); ++j) {
      const std::uint64_t bit = std::uint64_t{1} << (j % 64);
      for (std::size_t v = 0; v < num_vars_; ++v) {
        slices_[slice(v, spec.off[j].test(v)) + j / 64] |= bit;
      }
    }
  }

  /// Would `cube` with the literal on `var` removed contain an OFF minterm?
  bool widened_hits(const Cube& cube, std::size_t var) {
    if (words_ == 0) return false;  // empty OFF set: there are no slices
    literal_slices_.clear();
    const auto care = cube.care();
    const auto value = cube.value();
    for (std::size_t w = 0; w < care.size(); ++w) {
      for (std::uint64_t bits = care[w]; bits != 0; bits &= bits - 1) {
        const std::size_t v = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        if (v == var) continue;
        literal_slices_.push_back(&slices_[slice(v, (value[w] >> (v & 63)) & 1u)]);
      }
    }
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t acc = w + 1 == words_ ? last_word_mask_ : ~std::uint64_t{0};
      for (const std::uint64_t* s : literal_slices_) {
        acc &= s[w];
        if (acc == 0) break;
      }
      if (acc != 0) return true;
    }
    return false;
  }

 private:
  std::size_t slice(std::size_t var, bool value) const {
    return (2 * var + (value ? 1 : 0)) * words_;
  }

  std::size_t num_vars_;
  std::size_t words_;
  std::uint64_t last_word_mask_;
  std::vector<std::uint64_t> slices_;
  std::vector<const std::uint64_t*> literal_slices_;  // scratch for widened_hits
};

/// Expand: free literals in the given variable order while the cube stays
/// disjoint from OFF.  Produces a prime cube.
Cube expand_cube(Cube cube, const WidenedHitsOff& hits_off,
                 const std::vector<std::size_t>& var_order) {
  for (const std::size_t v : var_order) {
    if (cube.has_literal(v) && !hits_off(cube, v)) cube.free_var(v);
  }
  return cube;
}

/// Irredundant: keep essential cubes (sole coverer of some ON minterm),
/// then greedily cover the remaining ON minterms.
Cover make_irredundant(const Cover& cover, const std::vector<util::BitVec>& on) {
  const std::size_t nc = cover.size();
  std::vector<std::vector<std::uint32_t>> coverers(on.size());
  for (std::size_t mi = 0; mi < on.size(); ++mi) {
    for (std::uint32_t ci = 0; ci < nc; ++ci) {
      if (cover[ci].contains_code(on[mi].words())) coverers[mi].push_back(ci);
    }
    MPS_ASSERT(!coverers[mi].empty());
  }
  std::vector<bool> selected(nc, false);
  std::vector<bool> covered(on.size(), false);
  for (std::size_t mi = 0; mi < on.size(); ++mi) {
    if (coverers[mi].size() == 1) selected[coverers[mi][0]] = true;
  }
  for (std::size_t mi = 0; mi < on.size(); ++mi) {
    for (const std::uint32_t ci : coverers[mi]) {
      if (selected[ci]) {
        covered[mi] = true;
        break;
      }
    }
  }
  // Greedy set cover for the rest: most new minterms, then fewest literals.
  for (;;) {
    std::size_t uncovered = 0;
    for (std::size_t mi = 0; mi < on.size(); ++mi) uncovered += covered[mi] ? 0 : 1;
    if (uncovered == 0) break;
    std::uint32_t best = 0;
    std::size_t best_gain = 0;
    std::size_t best_lits = ~std::size_t{0};
    for (std::uint32_t ci = 0; ci < nc; ++ci) {
      if (selected[ci]) continue;
      std::size_t gain = 0;
      for (std::size_t mi = 0; mi < on.size(); ++mi) {
        if (!covered[mi] && cover[ci].contains_code(on[mi].words())) ++gain;
      }
      const std::size_t lits = cover[ci].literal_count();
      if (gain > best_gain || (gain == best_gain && gain > 0 && lits < best_lits)) {
        best = ci;
        best_gain = gain;
        best_lits = lits;
      }
    }
    MPS_ASSERT(best_gain > 0);
    selected[best] = true;
    for (std::size_t mi = 0; mi < on.size(); ++mi) {
      if (!covered[mi] && cover[best].contains_code(on[mi].words())) covered[mi] = true;
    }
  }
  Cover out(cover.num_vars());
  for (std::uint32_t ci = 0; ci < nc; ++ci) {
    if (selected[ci]) out.add(cover[ci]);
  }
  return out;
}

/// Reduce (sequential, as in espresso): shrink each cube in turn to the
/// supercube of the ON minterms no *other current* cube covers; drop cubes
/// whose minterms are all covered elsewhere.  Processing against the
/// partially reduced cover preserves total ON coverage.
Cover reduce(const Cover& cover, const std::vector<util::BitVec>& on) {
  std::vector<std::optional<Cube>> work;
  for (const Cube& c : cover.cubes()) work.emplace_back(c);
  for (std::size_t ci = 0; ci < work.size(); ++ci) {
    std::optional<Cube> shrunk;
    for (const auto& code : on) {
      if (!work[ci].has_value() || !work[ci]->contains_code(code.words())) continue;
      bool elsewhere = false;
      for (std::size_t cj = 0; cj < work.size() && !elsewhere; ++cj) {
        if (cj != ci && work[cj].has_value() && work[cj]->contains_code(code.words())) {
          elsewhere = true;
        }
      }
      if (!elsewhere) {
        const Cube m = Cube::minterm(code);
        shrunk = shrunk.has_value() ? shrunk->supercube(m) : m;
      }
    }
    work[ci] = shrunk;  // nullopt drops a fully redundant cube
  }
  Cover out(cover.num_vars());
  for (auto& c : work) {
    if (c.has_value()) out.add(std::move(*c));
  }
  return out;
}

}  // namespace

Cover heuristic_minimize(const SopSpec& spec, int loops) {
  OffSlices off(spec);
  return heuristic_minimize(
      spec, loops, [&off](const Cube& cube, std::size_t var) { return off.widened_hits(cube, var); });
}

Cover heuristic_minimize(const SopSpec& spec, int loops, const WidenedHitsOff& hits_off) {
  Cover cover(spec.num_vars);
  if (spec.on.empty()) return cover;

  std::vector<std::size_t> order(spec.num_vars);
  for (std::size_t v = 0; v < spec.num_vars; ++v) order[v] = v;
  std::vector<std::size_t> reversed(order.rbegin(), order.rend());

  for (const auto& code : spec.on) cover.add(Cube::minterm(code));

  std::size_t best_lits = ~std::size_t{0};
  Cover best = cover;
  bool forward = true;
  for (int loop = 0; loop < loops; ++loop) {
    // EXPAND
    Cover expanded(spec.num_vars);
    for (const Cube& c : cover.cubes()) {
      const Cube prime = expand_cube(c, hits_off, forward ? order : reversed);
      // Skip if already contained in an expanded cube.
      bool contained = false;
      for (const Cube& e : expanded.cubes()) {
        if (e.contains(prime)) {
          contained = true;
          break;
        }
      }
      if (!contained) expanded.add(prime);
    }
    expanded.remove_single_cube_containment();
    // IRREDUNDANT
    Cover irred = make_irredundant(expanded, spec.on);
    const std::size_t lits = irred.literal_count();
    if (lits < best_lits) {
      best_lits = lits;
      best = irred;
    }
    if (loop + 1 == loops) break;
    // REDUCE, then loop back to EXPAND in the other direction.
    cover = reduce(irred, spec.on);
    if (cover.empty()) break;
    forward = !forward;
  }
  MPS_ASSERT(cover_is_valid(spec, best));
  return best;
}

namespace {

/// QM implicant: fixed `values` on the non-dash positions.
struct Implicant {
  std::uint64_t values;  // bit v = value of variable v (0 where dashed)
  std::uint64_t dashes;  // bit v = variable v is free
  bool operator==(const Implicant&) const = default;
};
struct ImplicantHash {
  std::size_t operator()(const Implicant& a) const {
    return static_cast<std::size_t>(util::hash_combine(a.values, a.dashes));
  }
};

/// A code of fewer than 64 variables as one word (QM's working encoding).
std::uint64_t code_to_u64(const util::BitVec& code) {
  return code.words().empty() ? 0 : code.words()[0];
}

Cube implicant_to_cube(const Implicant& imp, std::size_t num_vars) {
  const std::uint64_t care = ~imp.dashes;
  const std::size_t words = (num_vars + 63) / 64;  // at most one: num_vars < 64
  return Cube::from_masks(num_vars, {&care, words}, {&imp.values, words});
}

/// Branch-and-bound unate covering: rows = ON minterms, cols = primes,
/// cost = literal count.  Returns selected column indices, or nullopt when
/// the search hit the node limit before proving its best cover minimum.
class CoveringSolver {
 public:
  CoveringSolver(std::size_t num_rows, std::vector<std::vector<std::uint32_t>> col_rows,
                 std::vector<int> col_cost, std::int64_t max_nodes)
      : num_rows_(num_rows),
        col_rows_(std::move(col_rows)),
        col_cost_(std::move(col_cost)),
        max_nodes_(max_nodes) {
    row_cols_.resize(num_rows_);
    for (std::uint32_t c = 0; c < col_rows_.size(); ++c) {
      for (const std::uint32_t r : col_rows_[c]) row_cols_[r].push_back(c);
    }
  }

  std::optional<std::vector<std::uint32_t>> solve() {
    std::vector<bool> covered(num_rows_, false);
    std::vector<std::uint32_t> chosen;
    best_cost_ = std::numeric_limits<int>::max();
    branch(covered, chosen, 0);
    if (cut_short_) return std::nullopt;
    return best_;
  }

 private:
  void branch(std::vector<bool>& covered, std::vector<std::uint32_t>& chosen, int cost) {
    if (++nodes_ >= max_nodes_) {
      cut_short_ = true;
      return;
    }
    if (cost >= best_cost_) return;
    // Find the uncovered row with the fewest candidate columns.
    std::uint32_t pick = 0xFFFFFFFFu;
    std::size_t fewest = ~std::size_t{0};
    for (std::uint32_t r = 0; r < num_rows_; ++r) {
      if (covered[r]) continue;
      std::size_t k = 0;
      for (const std::uint32_t c : row_cols_[r]) k += in_use(c, chosen) ? 0 : 1;
      if (k < fewest) {
        fewest = k;
        pick = r;
      }
    }
    if (pick == 0xFFFFFFFFu) {  // all covered
      best_cost_ = cost;
      best_ = chosen;
      return;
    }
    // Simple lower bound: at least one more column is needed.
    int min_extra = std::numeric_limits<int>::max();
    for (const std::uint32_t c : row_cols_[pick]) min_extra = std::min(min_extra, col_cost_[c]);
    if (min_extra == std::numeric_limits<int>::max() || cost + min_extra >= best_cost_) return;

    for (const std::uint32_t c : row_cols_[pick]) {
      std::vector<std::uint32_t> newly;
      for (const std::uint32_t r : col_rows_[c]) {
        if (!covered[r]) {
          covered[r] = true;
          newly.push_back(r);
        }
      }
      chosen.push_back(c);
      branch(covered, chosen, cost + col_cost_[c]);
      chosen.pop_back();
      for (const std::uint32_t r : newly) covered[r] = false;
      if (cut_short_) return;
    }
  }

  static bool in_use(std::uint32_t c, const std::vector<std::uint32_t>& chosen) {
    return std::find(chosen.begin(), chosen.end(), c) != chosen.end();
  }

  std::size_t num_rows_;
  std::vector<std::vector<std::uint32_t>> col_rows_;
  std::vector<int> col_cost_;
  std::vector<std::vector<std::uint32_t>> row_cols_;
  std::int64_t max_nodes_;
  std::int64_t nodes_ = 0;
  bool cut_short_ = false;
  int best_cost_ = 0;
  std::vector<std::uint32_t> best_;
};

}  // namespace

std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts) {
  const std::size_t n = spec.num_vars;
  if (n > opts.exact_max_vars || n >= 64) return std::nullopt;
  if (spec.on.empty()) return Cover(n);

  // Enumerate ON ∪ DC (= everything not OFF) as the implicant seed set.
  std::unordered_set<std::uint64_t> off_set;
  for (const auto& code : spec.off) off_set.insert(code_to_u64(code));

  std::unordered_set<Implicant, ImplicantHash> current;
  const std::uint64_t space = std::uint64_t{1} << n;
  for (std::uint64_t x = 0; x < space; ++x) {
    if (!off_set.contains(x)) current.insert(Implicant{x, 0});
  }

  // Iterative pairwise combination, collecting primes (uncombined cubes).
  std::vector<Implicant> primes;
  while (!current.empty()) {
    if (current.size() > opts.exact_max_primes) return std::nullopt;
    std::unordered_set<Implicant, ImplicantHash> next;
    std::unordered_set<Implicant, ImplicantHash> combined;
    std::vector<Implicant> list(current.begin(), current.end());
    // Group by dash mask for O(k) neighbour probing.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_dashes;
    std::unordered_set<Implicant, ImplicantHash> lookup(current.begin(), current.end());
    for (std::uint32_t i = 0; i < list.size(); ++i) by_dashes[list[i].dashes].push_back(i);
    for (const Implicant& imp : list) {
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << v;
        if (imp.dashes & bit) continue;
        const Implicant partner{imp.values ^ bit, imp.dashes};
        if (!lookup.contains(partner)) continue;
        combined.insert(imp);
        combined.insert(partner);
        next.insert(Implicant{imp.values & ~bit & ~(imp.dashes | bit), imp.dashes | bit});
      }
    }
    for (const Implicant& imp : list) {
      if (!combined.contains(imp)) primes.push_back(imp);
    }
    current = std::move(next);
    if (primes.size() > opts.exact_max_primes) return std::nullopt;
  }

  // Covering: only primes covering at least one ON minterm matter.
  std::vector<util::BitVec> on_codes = spec.on;
  std::vector<std::vector<std::uint32_t>> col_rows;
  std::vector<int> col_cost;
  std::vector<Implicant> cols;
  for (const Implicant& p : primes) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < on_codes.size(); ++r) {
      const std::uint64_t code = code_to_u64(on_codes[r]);
      if ((code & ~p.dashes) == (p.values & ~p.dashes)) rows.push_back(r);
    }
    if (!rows.empty()) {
      col_rows.push_back(std::move(rows));
      col_cost.push_back(static_cast<int>(n - static_cast<std::size_t>(
                                                  std::popcount(p.dashes & (space - 1)))));
      cols.push_back(p);
    }
  }

  CoveringSolver solver(on_codes.size(), std::move(col_rows), std::move(col_cost),
                        opts.exact_max_branch_nodes);
  const auto chosen = solver.solve();
  if (!chosen.has_value()) return std::nullopt;

  Cover out(n);
  for (const std::uint32_t c : *chosen) out.add(implicant_to_cube(cols[c], n));
  MPS_ASSERT(cover_is_valid(spec, out));
  return out;
}

Cover minimize(const SopSpec& spec, const MinimizeOptions& opts) {
  Cover heur = heuristic_minimize(spec, opts.heuristic_loops);
  if (opts.try_exact) {
    if (const auto exact = exact_minimize(spec, opts); exact.has_value()) {
      if (exact->literal_count() < heur.literal_count()) return *exact;
    }
  }
  return heur;
}

bool cover_is_valid(const SopSpec& spec, const Cover& cover) {
  for (const auto& code : spec.on) {
    if (!cover.covers_code(code.words())) return false;
  }
  for (const auto& code : spec.off) {
    if (cover.covers_code(code.words())) return false;
  }
  return true;
}

bool cube_is_prime(const SopSpec& spec, const Cube& cube) {
  if (cube_hits_off(cube, spec.off)) return false;
  for (std::size_t v = 0; v < spec.num_vars; ++v) {
    if (!cube.has_literal(v)) continue;
    Cube widened = cube;
    widened.free_var(v);
    if (!cube_hits_off(widened, spec.off)) return false;
  }
  return true;
}

bool cover_is_irredundant(const SopSpec& spec, const Cover& cover) {
  for (std::size_t ci = 0; ci < cover.size(); ++ci) {
    bool needed = false;
    for (const auto& code : spec.on) {
      if (!cover[ci].contains_code(code.words())) continue;
      bool elsewhere = false;
      for (std::size_t cj = 0; cj < cover.size() && !elsewhere; ++cj) {
        if (cj != ci && cover[cj].contains_code(code.words())) elsewhere = true;
      }
      if (!elsewhere) {
        needed = true;
        break;
      }
    }
    if (!needed) return false;
  }
  return true;
}

}  // namespace mps::logic
