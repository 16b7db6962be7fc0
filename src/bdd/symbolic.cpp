#include "bdd/symbolic.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::bdd {

namespace {
inline constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;
/// The initial signal code is inferred from a bounded explicit walk (a
/// token-game DFS stopped as soon as every signal's first rise/fall has
/// been witnessed — typically after a handful of firings).  This caps the
/// walk; signals still unresolved fall back to the declared initial value,
/// matching the explicit builder's rule for never-firing signals.
inline constexpr std::size_t kProbeMaxMarkings = 100'000;
}  // namespace

SymbolicStg::SymbolicStg(stg::Stg stg, const SymbolicOptions& opts)
    : stg_(std::move(stg)), opts_(opts), mgr_(0) {
  assign_variable_order();
  mgr_ = Manager(2 * num_bits_);
  mgr_.set_max_nodes(opts_.max_nodes);
  infer_initial_code();
}

std::uint32_t SymbolicStg::signal_var(stg::SignalId s) const {
  MPS_ASSERT(bit_pos_signal_[s] != kNoPos);
  return 2 * bit_pos_signal_[s];
}

void SymbolicStg::assign_variable_order() {
  const petri::Net& net = stg_.net();
  const std::size_t num_places = net.num_places();

  // Breadth-first traversal of the net from the initially marked places:
  // a place gets its bit position at discovery, a signal right after the
  // first transition touching it.  Discovery order follows the token flow,
  // so bits that one transition relates (fan-in places, fan-out places, the
  // signal) land next to each other — for replicated-module specifications
  // (pipelines, sequencer chains) this keeps each module's bits in one
  // contiguous band, which is what makes the reached set's BDD stay small.
  bit_pos_place_.assign(num_places, kNoPos);
  bit_pos_signal_.assign(stg_.num_signals(), kNoPos);
  std::uint32_t pos = 0;

  std::vector<char> trans_seen(net.num_transitions(), 0);
  std::vector<petri::PlaceId> queue;
  const petri::Marking& m0 = stg_.initial_marking();
  for (petri::PlaceId p = 0; p < num_places; ++p) {
    if (m0.tokens(p) > 0) {
      bit_pos_place_[p] = pos++;
      queue.push_back(p);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const petri::PlaceId p = queue[head];
    for (const petri::TransId t : net.place_post(p)) {
      if (trans_seen[t]) continue;
      trans_seen[t] = 1;
      const stg::Label& l = stg_.label(t);
      if (!l.is_silent() && stg_.signal_kind(l.sig) != stg::SignalKind::Dummy &&
          bit_pos_signal_[l.sig] == kNoPos) {
        bit_pos_signal_[l.sig] = pos++;
      }
      for (const petri::PlaceId q : net.trans_post(t)) {
        if (bit_pos_place_[q] == kNoPos) {
          bit_pos_place_[q] = pos++;
          queue.push_back(q);
        }
      }
    }
  }
  // Anything the traversal missed (structurally dead places, signals whose
  // transitions are all unreachable, non-dummy signals with no transitions)
  // goes at the bottom in id order.
  for (petri::PlaceId p = 0; p < num_places; ++p) {
    if (bit_pos_place_[p] == kNoPos) bit_pos_place_[p] = pos++;
  }
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (stg_.signal_kind(s) == stg::SignalKind::Dummy) continue;
    if (bit_pos_signal_[s] == kNoPos) bit_pos_signal_[s] = pos++;
  }
  num_bits_ = pos;
}

/// Bounded token-game DFS that stops as soon as every signal's initial
/// value is pinned.  The rule mirrors sg::infer_codes: a reachable firing
/// of s+ from a marking whose s-flip parity (relative to M0) is q pins the
/// initial value to q (the value at the firing marking must be 0); s- pins
/// it to ¬q.  DFS rather than BFS so one deep trajectory resolves far-away
/// stages after O(path) firings instead of O(breadth) markings.  Signals
/// left unresolved at the cap (or that never rise/fall) fall back to the
/// declared initial value, defaulting to 0 — the explicit builder's rule.
void SymbolicStg::infer_initial_code() {
  std::vector<char> resolved(stg_.num_signals(), 0);
  std::vector<char> base(stg_.num_signals(), 0);
  std::size_t unresolved = 0;
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (bit_pos_signal_[s] == kNoPos) continue;
    bool has_rise_fall = false;
    for (const petri::TransId t : stg_.transitions_of(s)) {
      const stg::Polarity pol = stg_.label(t).pol;
      has_rise_fall |= pol == stg::Polarity::Rise || pol == stg::Polarity::Fall;
    }
    if (has_rise_fall) {
      ++unresolved;
    } else {
      resolved[s] = 1;
      base[s] = stg_.initial_value(s).value_or(false) ? 1 : 0;
    }
  }

  const petri::Net& net = stg_.net();
  if (unresolved > 0) {
    struct Item {
      petri::Marking m;
      util::BitVec parity;
    };
    std::vector<Item> stack;
    std::unordered_set<petri::Marking, petri::MarkingHash> visited;
    stack.push_back({stg_.initial_marking(), util::BitVec(stg_.num_signals())});
    visited.insert(stg_.initial_marking());
    std::vector<petri::TransId> enabled;
    while (!stack.empty() && unresolved > 0 && visited.size() < kProbeMaxMarkings) {
      const Item item = std::move(stack.back());
      stack.pop_back();
      net.enabled_transitions(item.m, &enabled);
      for (const petri::TransId t : enabled) {
        const stg::Label& l = stg_.label(t);
        if (!l.is_silent() && !resolved[l.sig] &&
            (l.pol == stg::Polarity::Rise || l.pol == stg::Polarity::Fall)) {
          const bool q = item.parity.test(l.sig);
          base[l.sig] = (l.pol == stg::Polarity::Rise ? q : !q) ? 1 : 0;
          resolved[l.sig] = 1;
          if (--unresolved == 0) break;
        }
        petri::Marking next = net.fire(item.m, t);
        if (!next.is_safe()) continue;  // contact: reachable() will diagnose
        if (!visited.insert(next).second) continue;
        util::BitVec parity = item.parity;
        if (!l.is_silent()) parity.flip(l.sig);
        stack.push_back({std::move(next), std::move(parity)});
      }
    }
    for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
      if (bit_pos_signal_[s] != kNoPos && !resolved[s]) {
        base[s] = stg_.initial_value(s).value_or(false) ? 1 : 0;
      }
    }
  }

  std::size_t dense = 0;
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (bit_pos_signal_[s] != kNoPos) ++dense;
  }
  initial_code_ = util::BitVec(dense);
  dense = 0;
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (bit_pos_signal_[s] == kNoPos) continue;
    initial_code_.set(dense++, base[s] != 0);
  }
}

void SymbolicStg::compile() {
  if (compiled_) return;
  const petri::Net& net = stg_.net();
  const petri::Marking& m0 = stg_.initial_marking();
  if (!m0.is_safe()) {
    throw util::SemanticsError("STG '" + stg_.name() +
                               "' is not safe (a place holds >1 token)");
  }

  // One partition per net transition; the relation constrains exactly the
  // touched bits (pre/post places plus the labelled signal).
  parts_.reserve(net.num_transitions());
  std::vector<std::uint32_t> cube_vars;
  // (var, required value) literals, plus an optional toggle pair.
  std::vector<std::pair<std::uint32_t, bool>> lits;
  for (petri::TransId t = 0; t < net.num_transitions(); ++t) {
    lits.clear();
    cube_vars.clear();
    const auto& pre = net.trans_pre(t);
    const auto& post = net.trans_post(t);
    auto in = [](const std::vector<petri::PlaceId>& v, petri::PlaceId p) {
      return std::find(v.begin(), v.end(), p) != v.end();
    };
    for (const petri::PlaceId p : pre) {
      const std::uint32_t cur = place_var(p);
      lits.push_back({cur, true});
      lits.push_back({cur + 1, in(post, p)});
      cube_vars.push_back(cur);
    }
    for (const petri::PlaceId p : post) {
      if (in(pre, p)) continue;
      const std::uint32_t cur = place_var(p);
      lits.push_back({cur, false});
      lits.push_back({cur + 1, true});
      cube_vars.push_back(cur);
    }
    const stg::Label& l = stg_.label(t);
    std::uint32_t toggle_var = kNoPos;
    if (!l.is_silent() && bit_pos_signal_[l.sig] != kNoPos) {
      const std::uint32_t cur = signal_var(l.sig);
      switch (l.pol) {
        case stg::Polarity::Rise:
          lits.push_back({cur, false});
          lits.push_back({cur + 1, true});
          break;
        case stg::Polarity::Fall:
          lits.push_back({cur, true});
          lits.push_back({cur + 1, false});
          break;
        case stg::Polarity::Toggle:
          toggle_var = cur;
          break;
        case stg::Polarity::Silent:
          break;
      }
      cube_vars.push_back(cur);
    }

    // Conjoin highest variable first so every intermediate stays a cube.
    std::sort(lits.begin(), lits.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    NodeId rel = kTrue;
    for (const auto& [v, value] : lits) {
      rel = mgr_.ite(mgr_.var(v), value ? rel : kFalse, value ? kFalse : rel);
    }
    if (toggle_var != kNoPos) {
      rel = mgr_.bdd_and(rel, mgr_.bdd_xor(mgr_.var(toggle_var), mgr_.var(toggle_var + 1)));
    }

    NodeId pre_cube = kTrue;
    std::vector<std::uint32_t> pre_vars;
    for (const petri::PlaceId p : pre) pre_vars.push_back(place_var(p));
    std::sort(pre_vars.begin(), pre_vars.end(), std::greater<>());
    for (const std::uint32_t v : pre_vars) pre_cube = mgr_.ite(mgr_.var(v), pre_cube, kFalse);

    parts_.push_back(Part{t, rel, mgr_.cube(cube_vars), pre_cube});
  }

  // Initial state: minterm of (M0, initial code) over current variables.
  std::vector<std::pair<std::uint32_t, bool>> s0_bits;
  for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
    s0_bits.push_back({place_var(p), m0.tokens(p) > 0});
  }
  std::size_t dense = 0;
  std::vector<std::uint32_t> place_vars;
  for (petri::PlaceId p = 0; p < net.num_places(); ++p) place_vars.push_back(place_var(p));
  place_cube_ = mgr_.cube(place_vars);
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (bit_pos_signal_[s] == kNoPos) continue;
    s0_bits.push_back({signal_var(s), initial_code_.test(dense++)});
  }
  std::sort(s0_bits.begin(), s0_bits.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  s0_ = kTrue;
  for (const auto& [v, value] : s0_bits) {
    s0_ = mgr_.ite(mgr_.var(v), value ? s0_ : kFalse, value ? kFalse : s0_);
  }
  compiled_ = true;
}

void SymbolicStg::collect_roots(std::vector<NodeId*>* roots) {
  roots->push_back(&s0_);
  roots->push_back(&place_cube_);
  for (Part& part : parts_) {
    roots->push_back(&part.rel);
    roots->push_back(&part.cube);
    roots->push_back(&part.pre);
  }
  if (reached_) roots->push_back(&r_);
}

NodeId SymbolicStg::reachable() {
  if (reached_) return r_;
  obs::Span span("bdd.reach", stg_.name());
  const Manager::Stats before = mgr_.stats();
  compile();
  gc_trigger_ = opts_.gc_node_threshold;

  NodeId r = s0_;
  NodeId frontier = s0_;
  std::size_t iter = 0;
  while (frontier != kFalse) {
    obs::Span img("bdd.image");
    ++iter;
    if (opts_.max_iterations != 0 && iter > opts_.max_iterations) {
      throw util::LimitError("bdd: symbolic reachability of '" + stg_.name() + "' exceeded " +
                             std::to_string(opts_.max_iterations) + " image iterations");
    }
    NodeId next = kFalse;
    for (const Part& part : parts_) {
      // Img_t(frontier) = rename(∃ touched. frontier ∧ T_t): the relational
      // product quantifies the touched current variables on the fly, the
      // rename maps the touched next variables back to current; untouched
      // bits pass through unframed.
      next = mgr_.bdd_or(
          next, mgr_.rename_shift_down(mgr_.and_exists(frontier, part.rel, part.cube)));
    }
    frontier = mgr_.bdd_and(next, mgr_.bdd_not(r));
    r = mgr_.bdd_or(r, frontier);
    img.arg("iteration", static_cast<std::int64_t>(iter));
    img.arg("nodes", static_cast<std::int64_t>(mgr_.num_nodes()));

    if (gc_trigger_ != 0 && mgr_.num_nodes() > gc_trigger_) {
      std::vector<NodeId*> roots{&r, &frontier, &next};
      collect_roots(&roots);
      mgr_.gc(roots);
      // Re-arm above the live size so a dense reached set cannot thrash GC.
      gc_trigger_ = std::max(opts_.gc_node_threshold, 2 * mgr_.num_nodes());
    }
  }
  iterations_ = iter;
  check_safety_and_consistency(r);
  r_ = r;
  reached_ = true;

  const Manager::Stats after = mgr_.stats();
  span.arg("iterations", static_cast<std::int64_t>(iter));
  span.arg("nodes", static_cast<std::int64_t>(mgr_.num_nodes()));
  span.arg("unique_size", static_cast<std::int64_t>(mgr_.unique_size()));
  span.arg("gc_runs", static_cast<std::int64_t>(after.gc_runs - before.gc_runs));
  obs::counter_add("bdd.nodes", static_cast<std::int64_t>(mgr_.num_nodes()));
  obs::counter_add("bdd.unique_size", static_cast<std::int64_t>(mgr_.unique_size()));
  obs::counter_add("bdd.cache_hits",
                   static_cast<std::int64_t>(after.cache_hits - before.cache_hits));
  obs::counter_add("bdd.cache_misses",
                   static_cast<std::int64_t>(after.cache_misses - before.cache_misses));
  obs::counter_add("bdd.gc_collections",
                   static_cast<std::int64_t>(after.gc_runs - before.gc_runs));
  return r_;
}

/// The explicit builder rejects unsafe nets and inconsistent codings while
/// enumerating; symbolically both show up as non-empty intersections with
/// the reached set.  Contact: some reachable state marking-enables t while
/// a fresh output place already holds a token.  Inconsistency: some
/// reachable state marking-enables a rise (fall) of a signal that is
/// already 1 (0) — the relation blocks the firing, so without this check
/// the engine would silently under-approximate instead of failing loudly.
void SymbolicStg::check_safety_and_consistency(NodeId r) {
  const petri::Net& net = stg_.net();
  for (const Part& part : parts_) {
    const NodeId enabled = mgr_.bdd_and(r, part.pre);
    if (enabled == kFalse) continue;
    const auto& pre = net.trans_pre(part.trans);
    for (const petri::PlaceId p : net.trans_post(part.trans)) {
      if (std::find(pre.begin(), pre.end(), p) != pre.end()) continue;
      if (mgr_.bdd_and(enabled, mgr_.var(place_var(p))) != kFalse) {
        throw util::SemanticsError("STG '" + stg_.name() +
                                   "' is not safe (a place holds >1 token)");
      }
    }
    const stg::Label& l = stg_.label(part.trans);
    if (l.is_silent() || bit_pos_signal_[l.sig] == kNoPos) continue;
    if (l.pol != stg::Polarity::Rise && l.pol != stg::Polarity::Fall) continue;
    const std::uint32_t u = signal_var(l.sig);
    const NodeId wrong = l.pol == stg::Polarity::Rise ? mgr_.var(u) : mgr_.nvar(u);
    if (mgr_.bdd_and(enabled, wrong) != kFalse) {
      throw util::SemanticsError("STG '" + stg_.name() +
                                 "' has no consistent state assignment for signal " +
                                 stg_.signal_name(l.sig));
    }
  }
}

double SymbolicStg::count_states(NodeId f) {
  // sat_count restricted to the current (even) variables: positions are
  // var/2 and the total width is num_bits_.  The reached set never mentions
  // next variables, asserted below.
  const auto nbits = static_cast<std::uint32_t>(num_bits_);
  std::unordered_map<NodeId, double> memo;
  auto pos_of = [&](NodeId x) -> std::uint32_t {
    return x <= kTrue ? nbits : mgr_.node(x).var / 2;
  };
  auto count = [&](auto&& self, NodeId x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    if (const auto it = memo.find(x); it != memo.end()) return it->second;
    const Manager::Node& n = mgr_.node(x);
    MPS_ASSERT((n.var & 1u) == 0);
    const std::uint32_t p = n.var / 2;
    const double total =
        self(self, n.low) * std::pow(2.0, static_cast<double>(pos_of(n.low) - p - 1)) +
        self(self, n.high) * std::pow(2.0, static_cast<double>(pos_of(n.high) - p - 1));
    memo.emplace(x, total);
    return total;
  };
  return count(count, f) * std::pow(2.0, static_cast<double>(pos_of(f)));
}

double SymbolicStg::num_states() { return count_states(reachable()); }

NodeId SymbolicStg::code_chi() { return mgr_.exists_cube(reachable(), place_cube_); }

bool SymbolicStg::code_reachable(const util::BitVec& code) {
  const NodeId chi = code_chi();
  util::BitVec assignment(mgr_.num_vars());
  std::size_t dense = 0;
  for (stg::SignalId s = 0; s < stg_.num_signals(); ++s) {
    if (bit_pos_signal_[s] == kNoPos) continue;
    MPS_ASSERT(dense < code.size());
    assignment.set(signal_var(s), code.test(dense++));
  }
  MPS_ASSERT(dense == code.size());
  return mgr_.eval(chi, assignment);
}

CscVerdict SymbolicStg::check_csc() {
  const NodeId r = reachable();
  obs::Span span("bdd.csc", stg_.name());
  CscVerdict verdict;
  for (stg::SignalId u = 0; u < stg_.num_signals(); ++u) {
    if (!stg_.is_non_input(u) || bit_pos_signal_[u] == kNoPos) continue;
    NodeId rise_en = kFalse, fall_en = kFalse, toggle_en = kFalse;
    for (const petri::TransId t : stg_.transitions_of(u)) {
      switch (stg_.label(t).pol) {
        case stg::Polarity::Rise:
          rise_en = mgr_.bdd_or(rise_en, parts_[t].pre);
          break;
        case stg::Polarity::Fall:
          fall_en = mgr_.bdd_or(fall_en, parts_[t].pre);
          break;
        case stg::Polarity::Toggle:
          toggle_en = mgr_.bdd_or(toggle_en, parts_[t].pre);
          break;
        case stg::Polarity::Silent:
          break;
      }
    }
    const NodeId uv = mgr_.var(signal_var(u));
    const NodeId nuv = mgr_.bdd_not(uv);
    // Excited-to-rise/fall; a toggle's direction is the current value's
    // complement, matching how the explicit builder resolves '~' edges.
    const NodeId rise = mgr_.bdd_or(rise_en, mgr_.bdd_and(nuv, toggle_en));
    const NodeId fall = mgr_.bdd_or(fall_en, mgr_.bdd_and(uv, toggle_en));
    // Implied next value (logic::implied_value): 1 while at 1 and not
    // excited to fall, or at 0 and excited to rise.
    const NodeId implied =
        mgr_.bdd_or(mgr_.bdd_and(uv, mgr_.bdd_not(fall)), mgr_.bdd_and(nuv, rise));
    // Project the ON/OFF state sets onto the code space; CSC for u holds
    // iff no code appears on both sides.
    const NodeId on = mgr_.and_exists(r, implied, place_cube_);
    const NodeId off = mgr_.and_exists(r, mgr_.bdd_not(implied), place_cube_);
    if (mgr_.bdd_and(on, off) != kFalse) {
      verdict.holds = false;
      verdict.conflicts.push_back(u);
    }
  }
  span.arg("conflicts", static_cast<std::int64_t>(verdict.conflicts.size()));
  return verdict;
}

}  // namespace mps::bdd
