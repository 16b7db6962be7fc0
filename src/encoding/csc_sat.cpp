#include "encoding/csc_sat.hpp"

#include "sg/csc.hpp"
#include "util/common.hpp"

namespace mps::encoding {

namespace {

using sg::V4;

/// Footnote-2 boolean encoding of a four-valued assignment.
bool bit_a(V4 v) { return v == V4::Up || v == V4::Down; }
bool bit_b(V4 v) { return v == V4::One || v == V4::Down; }

constexpr V4 kAll[] = {V4::Zero, V4::One, V4::Up, V4::Down};

}  // namespace

Encoding::Encoding(const sg::StateGraph& g, std::size_t num_new_signals,
                   const std::vector<std::pair<sg::StateId, sg::StateId>>& conflicts,
                   const std::vector<std::pair<sg::StateId, sg::StateId>>& compatible_pairs,
                   const EncodeOptions& opts)
    : num_states_(g.num_states()), m_(num_new_signals), opts_(opts) {
  MPS_ASSERT(m_ >= 1);
  cnf_.new_vars(num_core_vars());
  encode_edge_coherence(g);
  encode_diamond_semimodularity(g);
  encode_compatibility(compatible_pairs);
  encode_separation(conflicts);
}

void Encoding::encode_edge_coherence(const sg::StateGraph& g) {
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const sg::Edge& e : g.out(s)) {
      const bool input_edge = !e.is_silent() && g.is_input(e.sig);
      for (std::size_t k = 0; k < m_; ++k) {
        for (const V4 v : kAll) {
          for (const V4 w : kAll) {
            bool forbidden = !sg::edge_pair_allowed(v, w);
            if (!forbidden && opts_.input_properness && input_edge) {
              // The environment does not wait for internal signals: an
              // inserted transition may not fire "inside" an input edge.
              forbidden = (v == V4::Up && w == V4::One) || (v == V4::Down && w == V4::Zero);
            }
            if (!forbidden) continue;
            cnf_.add_clause({sat::Lit::make(var_a(s, k), bit_a(v)),
                             sat::Lit::make(var_b(s, k), bit_b(v)),
                             sat::Lit::make(var_a(e.to, k), bit_a(w)),
                             sat::Lit::make(var_b(e.to, k), bit_b(w))});
          }
        }
      }
    }
  }
}

void Encoding::encode_diamond_semimodularity(const sg::StateGraph& g) {
  // Semi-modularity across concurrency diamonds (the c2·N_ct term of the
  // §2.1 size model).  For a diamond  M --t--> A,  M --u--> B,  B --t--> C:
  // if t is enabled in phase p of M (entry_phase_ok(v_A, p)) and u fires
  // (phase-preserving, possible iff entry_phase_ok(v_B, p)), then t must
  // still be enabled: entry_phase_ok(v_C, p).  Encoded per phase:
  //   p = 1:  entry_ok(v,1) = (a ∨ b)   (v ≠ 0)
  //   p = 0:  entry_ok(v,0) = (a ∨ ¬b)  (v ≠ 1)
  // forbid  entry_ok(A,p) ∧ entry_ok(B,p) ∧ ¬entry_ok(C,p)  → 4 clauses
  // per phase per diamond per signal.
  for (sg::StateId m = 0; m < g.num_states(); ++m) {
    const auto& edges = g.out(m);
    for (const sg::Edge& t : edges) {
      if (t.is_silent()) continue;
      for (const sg::Edge& u : edges) {
        if (u.is_silent() || (u.sig == t.sig && u.rise == t.rise)) continue;
        for (const sg::Edge& t2 : g.out(u.to)) {
          if (t2.is_silent() || t2.sig != t.sig || t2.rise != t.rise) continue;
          const sg::StateId a = t.to;
          const sg::StateId b = u.to;
          const sg::StateId c = t2.to;
          for (std::size_t k = 0; k < m_; ++k) {
            for (const bool p : {false, true}) {
              // ¬entry_ok(X, p) = ¬a_X ∧ (p ? ¬b_X : b_X)
              const sat::Lit a_lits[2] = {sat::neg(var_a(a, k)),
                                          sat::Lit::make(var_b(a, k), p)};
              const sat::Lit b_lits[2] = {sat::neg(var_a(b, k)),
                                          sat::Lit::make(var_b(b, k), p)};
              const sat::Lit c_entry_a = sat::pos(var_a(c, k));
              const sat::Lit c_entry_b = sat::Lit::make(var_b(c, k), !p);
              for (const sat::Lit la : a_lits) {
                for (const sat::Lit lb : b_lits) {
                  cnf_.add_clause({la, lb, c_entry_a, c_entry_b});
                }
              }
            }
          }
        }
      }
    }
  }
}

void Encoding::encode_compatibility(
    const std::vector<std::pair<sg::StateId, sg::StateId>>& pairs) {
  // A code-equal pair with identical behaviour stays legal only if, for
  // every new signal, the values *match* (no new-signal excitation visible
  // on one side only) — OR some new signal separates the pair outright
  // (then the codes no longer collide and any mismatch is harmless).
  // Mismatched value pairs (one side excited, other stable/opposite):
  // (Up,0), (Down,1), (Up,Down) and mirrors — 6 ordered pairs, c3 = 6.
  //
  // Encoded with one "separates" auxiliary per (pair, signal):
  //   sep_k  ->  ¬a_ik ∧ ¬a_jk ∧ (b_ik ∨ b_jk) ∧ (¬b_ik ∨ ¬b_jk)
  // and, per signal k and forbidden pattern P:
  //   ¬P(i,j,k) ∨ sep_1 ∨ ... ∨ sep_m
  // — 6·m conditional clauses per pair, the N_usc·c3^m term of the §2.1
  // size model in its polynomial (auxiliary-variable) form.
  static constexpr std::pair<V4, V4> kForbidden[] = {
      {V4::Up, V4::Zero},  {V4::Zero, V4::Up},   {V4::Down, V4::One},
      {V4::One, V4::Down}, {V4::Up, V4::Down},   {V4::Down, V4::Up},
  };
  for (const auto& [i, j] : pairs) {
    std::vector<sat::Lit> seps;
    for (std::size_t k = 0; k < m_; ++k) {
      const sat::Var d = cnf_.new_var();
      cnf_.add_clause({sat::neg(d), sat::neg(var_a(i, k))});
      cnf_.add_clause({sat::neg(d), sat::neg(var_a(j, k))});
      cnf_.add_clause({sat::neg(d), sat::pos(var_b(i, k)), sat::pos(var_b(j, k))});
      cnf_.add_clause({sat::neg(d), sat::neg(var_b(i, k)), sat::neg(var_b(j, k))});
      seps.push_back(sat::pos(d));
    }
    for (std::size_t k = 0; k < m_; ++k) {
      for (const auto& [v, w] : kForbidden) {
        std::vector<sat::Lit> clause{sat::Lit::make(var_a(i, k), bit_a(v)),
                                     sat::Lit::make(var_b(i, k), bit_b(v)),
                                     sat::Lit::make(var_a(j, k), bit_a(w)),
                                     sat::Lit::make(var_b(j, k), bit_b(w))};
        clause.insert(clause.end(), seps.begin(), seps.end());
        cnf_.add_clause(std::move(clause));
      }
    }
  }
}

void Encoding::encode_separation(const std::vector<std::pair<sg::StateId, sg::StateId>>& pairs) {
  for (const auto& [i, j] : pairs) {
    if (m_ <= opts_.naive_max_m) {
      add_pair_separation_naive(i, j);
    } else {
      add_pair_separation_tseitin(i, j);
    }
  }
}

void Encoding::add_pair_separation_naive(sg::StateId i, sg::StateId j) {
  // D = OR_k (¬a_ik ∧ ¬a_jk ∧ (b_ik ∨ b_jk) ∧ (¬b_ik ∨ ¬b_jk)):
  // signal k separates the pair iff both values are stable (a = 0) and the
  // b bits differ.  Distributing the conjunctions over the disjunction
  // yields 4^m clauses — the c4^m growth of the paper's size model.
  std::vector<sat::Lit> clause;
  // factor index f in 0..3 selects one conjunct of signal k's term.
  auto factor_lits = [&](std::size_t k, int f) -> std::vector<sat::Lit> {
    switch (f) {
      case 0: return {sat::neg(var_a(i, k))};
      case 1: return {sat::neg(var_a(j, k))};
      case 2: return {sat::pos(var_b(i, k)), sat::pos(var_b(j, k))};
      default: return {sat::neg(var_b(i, k)), sat::neg(var_b(j, k))};
    }
  };
  // Recursive distribution over the m signals.
  std::vector<int> choice(m_, 0);
  for (;;) {
    clause.clear();
    for (std::size_t k = 0; k < m_; ++k) {
      for (const sat::Lit l : factor_lits(k, choice[k])) clause.push_back(l);
    }
    cnf_.add_clause(clause);
    // Increment the mixed-radix counter.
    std::size_t k = 0;
    while (k < m_ && ++choice[k] == 4) {
      choice[k] = 0;
      ++k;
    }
    if (k == m_) break;
  }
}

void Encoding::add_pair_separation_tseitin(sg::StateId i, sg::StateId j) {
  std::vector<sat::Lit> any;
  for (std::size_t k = 0; k < m_; ++k) {
    const sat::Var d = cnf_.new_var();
    cnf_.add_clause({sat::neg(d), sat::neg(var_a(i, k))});
    cnf_.add_clause({sat::neg(d), sat::neg(var_a(j, k))});
    cnf_.add_clause({sat::neg(d), sat::pos(var_b(i, k)), sat::pos(var_b(j, k))});
    cnf_.add_clause({sat::neg(d), sat::neg(var_b(i, k)), sat::neg(var_b(j, k))});
    any.push_back(sat::pos(d));
  }
  cnf_.add_clause(any);
}

void Encoding::decode(const sat::Model& model, sg::Assignments* out,
                      const std::string& name_prefix) const {
  MPS_ASSERT(model.size() >= num_core_vars());
  MPS_ASSERT(out->num_states() == num_states_);
  for (std::size_t k = 0; k < m_; ++k) {
    std::vector<V4> values(num_states_);
    for (sg::StateId s = 0; s < num_states_; ++s) {
      const bool a = model[var_a(s, k)];
      const bool b = model[var_b(s, k)];
      values[s] = a ? (b ? V4::Down : V4::Up) : (b ? V4::One : V4::Zero);
    }
    out->add_signal(name_prefix + std::to_string(out->num_signals()), std::move(values));
  }
}

Encoding encode_csc(const sg::StateGraph& g, std::size_t num_new_signals,
                    const sg::Assignments* existing, const EncodeOptions& opts) {
  const auto analysis = sg::analyze_csc(g, existing);
  return Encoding(g, num_new_signals, analysis.conflicts, analysis.compatible_pairs, opts);
}

}  // namespace mps::encoding
