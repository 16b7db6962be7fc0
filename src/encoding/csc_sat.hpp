// The SAT model for CSC satisfaction (§2.1, after Vanbekbergen et al.,
// ICCAD'92).
//
// For a state graph with N states and m new state signals, every state Mi
// gets one four-valued variable per signal n_k, boolean-encoded in two bits
// (a, b) per the paper's footnote 2:
//     {a=0,b=0} = 0,  {a=0,b=1} = 1,  {a=1,b=0} = Up,  {a=1,b=1} = Down
// giving exactly 2·N·m variables.  Clauses enforce:
//   * edge coherence — along every SG edge the (value(from), value(to))
//     pair must be one of the eight allowed pairs (equal, or an excitation
//     boundary (0,Up),(Up,1),(1,Down),(Down,0)); this encodes both the
//     consistent-assignment and the semi-modularity constraints for the
//     inserted signals,
//   * diamond semi-modularity — across every concurrency diamond
//     (M --t--> A, M --u--> B, B --t--> C) the inserted signal's values
//     must not let u's firing disable t (the c2·N_ct clause term of the
//     paper's §2.1 size model),
//   * input properness (optional) — an inserted transition may not be
//     "absorbed" along an input edge ((Up,1) / (Down,0) forbidden when the
//     edge is an input transition), since the environment will not wait
//     for an internal signal,
//   * CSC separation — every conflicting state pair must get stable
//     complementary values on at least one new signal.
//
// Separation constraints can be emitted in two styles:
//   * naive product-of-sums distribution — c^m clauses per conflict pair,
//     the behaviour the paper's §2.1 size model (N_csc·c4^m) describes, or
//   * Tseitin auxiliaries — O(m) clauses per pair (used when m is large).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/cnf.hpp"
#include "sg/assignments.hpp"
#include "sg/state_graph.hpp"

namespace mps::encoding {

struct EncodeOptions {
  /// Forbid (Up,1)/(Down,0) across edges labelled by input signals, i.e.
  /// never let an inserted transition delay an input.  The paper (and the
  /// Vanbekbergen formulation it builds on) does NOT impose this — state
  /// signals may be ordered before environment transitions, assuming a
  /// cooperative environment — and several benchmarks are unsolvable with
  /// it, so it defaults off; bench/ablation measures its effect.
  bool input_properness = false;
  /// Largest m for which separation constraints use the naive c^m
  /// expansion; beyond this, Tseitin auxiliaries are introduced.
  std::size_t naive_max_m = 3;
};

class Encoding {
 public:
  /// `conflicts` get separation constraints; `compatible_pairs` (code-equal
  /// pairs whose behaviour already matches) get compatibility constraints —
  /// the new signals must not turn them into fresh conflicts (6 forbidden
  /// value pairs, the N_usc·c3^m term).
  Encoding(const sg::StateGraph& g, std::size_t num_new_signals,
           const std::vector<std::pair<sg::StateId, sg::StateId>>& conflicts,
           const std::vector<std::pair<sg::StateId, sg::StateId>>& compatible_pairs = {},
           const EncodeOptions& opts = {});

  const sat::Cnf& cnf() const { return cnf_; }
  std::size_t num_new_signals() const { return m_; }
  /// Variables of the core model, 2·N·m (excludes Tseitin auxiliaries).
  std::size_t num_core_vars() const { return 2 * num_states_ * m_; }

  /// The (a, b) variable pair of state signal k in state s.
  sat::Var var_a(sg::StateId s, std::size_t k) const { return 2 * (s * m_ + k); }
  sat::Var var_b(sg::StateId s, std::size_t k) const { return 2 * (s * m_ + k) + 1; }

  /// Decode a model into per-state values for each new signal, appended to
  /// `out` (which must index the same graph) with generated names
  /// "<prefix>0", "<prefix>1", ...
  void decode(const sat::Model& model, sg::Assignments* out,
              const std::string& name_prefix) const;

 private:
  void encode_edge_coherence(const sg::StateGraph& g);
  void encode_diamond_semimodularity(const sg::StateGraph& g);
  void encode_separation(const std::vector<std::pair<sg::StateId, sg::StateId>>& pairs);
  void encode_compatibility(const std::vector<std::pair<sg::StateId, sg::StateId>>& pairs);
  void add_pair_separation_naive(sg::StateId i, sg::StateId j);
  void add_pair_separation_tseitin(sg::StateId i, sg::StateId j);

  sat::Cnf cnf_;
  std::size_t num_states_;
  std::size_t m_;
  EncodeOptions opts_;
};

/// Convenience: encode with the conflicts of a fresh CSC analysis.
Encoding encode_csc(const sg::StateGraph& g, std::size_t num_new_signals,
                    const sg::Assignments* existing = nullptr, const EncodeOptions& opts = {});

}  // namespace mps::encoding
