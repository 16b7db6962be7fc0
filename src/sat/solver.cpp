#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/obs.hpp"
#include "sat/cdcl.hpp"
#include "sat/engine.hpp"
#include "util/common.hpp"

namespace mps::sat {

namespace {

/// Internal DPLL state for one solve() call.
///
/// Hot-path layout (DESIGN.md "Hot paths"):
///   * Clauses live in one contiguous Lit arena (`arena_`) addressed by
///     per-clause {offset, size} headers — no per-clause vector, no pointer
///     chasing, and the watch-move scan walks a flat buffer.
///   * Watch entries carry a blocker literal (MiniSat-style): a clause whose
///     cached blocker is true and still watched is kept without running the
///     normalize-and-scan protocol (the stricter still-watched condition is
///     what keeps the search path bit-identical to the reference solver).
///   * Branching pops a lazy max-heap ordered by (score_ + activity_,
///     lowest var id) — the exact total order the previous O(#vars) linear
///     scan maximized, so the selected variable is identical; see the
///     HeapMatchesLinearScanReference regression test.
///
/// The arena, watch and heap mechanics live in sat/engine.hpp, shared with
/// the CDCL engine; this class owns the policy that must never change —
/// its Table-1 quality columns are bit-identity-pinned.
class Dpll {
 public:
  Dpll(const Cnf& cnf, const SolveOptions& opts)
      : cnf_(cnf), opts_(opts), heap_(HeapOrder{this}) {
    const std::size_t n = cnf.num_vars();
    assign_.assign(n, kUnassignedValue);
    watches_.assign(2 * n, {});
    score_.assign(n, 0.0);
    activity_.assign(n, 0.0);
    num_unassigned_ = n;
    rng_ = util::Rng(opts.seed);

    // Copy clauses into the arena, set up watches; unit clauses go straight
    // on the trail.
    arena_.reserve(cnf.num_literals());
    for (const auto& clause : cnf.clauses()) {
      if (clause.empty()) {
        trivially_unsat_ = true;
        return;
      }
      if (clause.size() == 1) {
        if (!enqueue(clause[0])) {
          trivially_unsat_ = true;
          return;
        }
        continue;
      }
      const std::uint32_t ci = static_cast<std::uint32_t>(heads_.size());
      heads_.push_back({static_cast<std::uint32_t>(arena_.size()),
                        static_cast<std::uint32_t>(clause.size())});
      arena_.insert(arena_.end(), clause.begin(), clause.end());
      watches_[clause[0].x].push_back({ci, clause[1]});
      watches_[clause[1].x].push_back({ci, clause[0]});
      // Static branching score: short clauses weigh more (Jeroslow-Wang).
      const double w = std::pow(2.0, -static_cast<double>(clause.size()));
      for (const Lit l : clause) score_[l.var()] += w;
    }
    heap_.build(n);
  }

  Outcome run(Model* model, SolveStats* stats) {
    util::Timer timer;
    // The solve's one stop condition: its own time limit or the caller's
    // shared deadline, whichever comes first.
    const util::Deadline stop =
        util::Deadline::after(opts_.time_limit_s).min(opts_.deadline);
    Outcome outcome = trivially_unsat_ ? Outcome::Unsat : search(stop);
    if (outcome == Outcome::Sat && model != nullptr) {
      model->assign(cnf_.num_vars(), false);
      for (Var v = 0; v < cnf_.num_vars(); ++v) (*model)[v] = assign_[v] == 1;
    }
    if (stats != nullptr) {
      stats->decisions = decisions_;
      stats->backtracks = backtracks_;
      stats->conflicts = conflicts_;
      stats->propagations = propagations_;
      stats->restarts = restarts_;
      stats->learned = 0;  // branch-and-bound: nothing is ever learned
      stats->seconds = timer.seconds();
    }
    return outcome;
  }

 private:
  bool value_true(Lit l) const { return assign_[l.var()] == (l.negated() ? 0 : 1); }
  bool value_false(Lit l) const { return assign_[l.var()] == (l.negated() ? 1 : 0); }
  bool unassigned(Lit l) const { return assign_[l.var()] == kUnassignedValue; }

  /// Put `l` on the trail; false if it contradicts the current assignment.
  bool enqueue(Lit l) {
    if (value_false(l)) return false;
    if (value_true(l)) return true;
    assign_[l.var()] = l.negated() ? 0 : 1;
    --num_unassigned_;
    trail_.push_back(l);
    return true;
  }

  /// Max-heap order over unassigned (plus lazily stale assigned) variables:
  /// higher score_+activity_ first, lower var id on ties.  The tie-break
  /// makes the order total, so the heap root is the unique maximum — the
  /// same variable a front-to-back linear scan keeping strict improvements
  /// would report.
  struct HeapOrder {
    const Dpll* self;
    bool operator()(Var a, Var b) const {
      const double ka = self->score_[a] + self->activity_[a];
      const double kb = self->score_[b] + self->activity_[b];
      return ka > kb || (ka == kb && a < b);
    }
  };

  /// Two-watched-literal unit propagation.  Returns false on conflict and
  /// records the conflicting clause for activity bumping.
  bool propagate() {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++propagations_;
      // Clauses watching ~p must find a new watch or become unit/conflict.
      const Lit false_lit = ~p;
      auto& watch_list = watches_[false_lit.x];
      std::size_t keep = 0;
      bool conflict = false;
      for (std::size_t wi = 0; wi < watch_list.size(); ++wi) {
        const Watch w = watch_list[wi];
        if (conflict) {
          watch_list[keep++] = w;
          continue;
        }
        const ClauseHead h = heads_[w.clause];
        Lit* lits = arena_.data() + h.offset;
        // Blocker fast path: the cached literal is true AND still one of the
        // two watched positions — then it is the *other* watched literal
        // (the false one is being visited), the clause is satisfied, and the
        // reference algorithm kept this watch too.  A stale true blocker
        // that drifted out of the watched pair must NOT short-circuit: the
        // reference scan may move the watch instead, and keeping it changes
        // which conflict is found first and hence the activity-driven search
        // path (observed as diverging Table 1 columns).
        if (value_true(w.blocker) && (lits[0] == w.blocker || lits[1] == w.blocker)) {
          watch_list[keep++] = w;
          continue;
        }
        // Ensure the false literal is at position 1.
        if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
        const Lit first = lits[0];
        if (value_true(first)) {
          watch_list[keep++] = {w.clause, first};  // already satisfied
          continue;
        }
        // Look for a replacement watch.
        bool moved = false;
        for (std::uint32_t k = 2; k < h.size; ++k) {
          if (!value_false(lits[k])) {
            std::swap(lits[1], lits[k]);
            watches_[lits[1].x].push_back({w.clause, first});
            moved = true;
            break;
          }
        }
        if (moved) continue;  // watch moved away, drop from this list
        // Clause is unit (or conflicting) on `first`.
        watch_list[keep++] = {w.clause, first};
        if (!enqueue(first)) {
          conflict = true;
          conflict_clause_ = w.clause;
        }
      }
      watch_list.resize(keep);
      if (conflict) return false;
    }
    return true;
  }

  /// Undo the trail down to `target` length.
  void undo_to(std::size_t target) {
    while (trail_.size() > target) {
      const Var v = trail_.back().var();
      assign_[v] = kUnassignedValue;
      ++num_unassigned_;
      heap_.insert(v);
      trail_.pop_back();
    }
    qhead_ = trail_.size();
  }

  /// Branch phase for `v`: always FALSE first.  CSC-encoding variables at
  /// 0 mean state-signal value Zero, so solutions keep minimal excitation
  /// regions (fewest state splits on expansion); a Jeroslow-Wang polarity
  /// hint was tried here and made downstream synthesis results worse.
  Lit phased(Var v) const { return Lit::make(v, true); }

  Lit pick_branch() {
    // Occasional random decisions diversify the search across restarts.
    // num_unassigned_ is maintained by enqueue()/undo_to(), so this path
    // costs one scan (to the picked variable), not two full ones.
    if (rng_.chance(0.02)) {
      if (num_unassigned_ > 0) {
        std::uint64_t pick = rng_.below(num_unassigned_);
        for (Var v = 0; v < cnf_.num_vars(); ++v) {
          if (assign_[v] == kUnassignedValue && pick-- == 0) return phased(v);
        }
      }
    }
    if (opts_.reference_linear_branching) {
      // Reference implementation pinned by the determinism regression test:
      // the heap below must select exactly this variable.
      Var best = kNoVar;
      double best_score = -1.0;
      for (Var v = 0; v < cnf_.num_vars(); ++v) {
        if (assign_[v] == kUnassignedValue && score_[v] + activity_[v] > best_score) {
          best = v;
          best_score = score_[v] + activity_[v];
        }
      }
      if (best == kNoVar) return Lit{};
      return phased(best);
    }
    for (;;) {
      const Var v = heap_.pop();
      if (v == kNoVar) return Lit{};
      if (assign_[v] == kUnassignedValue) return phased(v);
    }
  }

  /// Conflict-driven activity (VSIDS-style bump/decay) — adaptive
  /// branching without clause learning, in the branch-and-bound spirit of
  /// the original SIS solver.
  void bump_conflict_activity() {
    if (conflict_clause_ == kNoClause) return;
    const ClauseHead h = heads_[conflict_clause_];
    for (std::uint32_t k = 0; k < h.size; ++k) {
      const Var v = arena_[h.offset + k].var();
      activity_[v] += activity_inc_;
      heap_.increased(v);
    }
    activity_inc_ *= 1.05;
    if (activity_inc_ > 1e100) {
      for (auto& a : activity_) a *= 1e-100;
      activity_inc_ *= 1e-100;
      // The rescale shifts score_+activity_ sums non-uniformly; restore the
      // heap invariant wholesale.
      heap_.rebuild();
    }
  }

  Outcome search(const util::Deadline& stop) {
    struct Decision {
      Lit lit;
      std::size_t trail_size;  // trail length *before* the decision
      bool flipped;
    };
    std::vector<Decision> decisions;
    const std::size_t root_trail = trail_.size();  // units assigned up front
    std::int64_t restart_budget = opts_.restart_interval;
    std::int64_t backtracks_since_restart = 0;

    for (;;) {
      if (!propagate()) {
        // One chronological flip per conflict: the two counts advance in
        // lockstep here by construction (the invariant SolveStats documents).
        ++conflicts_;
        ++backtracks_;
        ++backtracks_since_restart;
        bump_conflict_activity();
        if (opts_.max_backtracks >= 0 && backtracks_ > opts_.max_backtracks) {
          return Outcome::Limit;
        }
        if ((backtracks_ & 255) == 0 && stop.expired()) return Outcome::Limit;
        if (opts_.restart_interval > 0 && backtracks_since_restart >= restart_budget) {
          // Geometric restart: forget decisions, keep activities.  The
          // doubling saturates — an unbounded run used to overflow int64
          // after 63 restarts, turning the budget negative.
          decisions.clear();
          undo_to(root_trail);
          restart_budget = saturating_double(restart_budget);
          backtracks_since_restart = 0;
          ++restarts_;
          continue;
        }
        // Backtrack to the deepest unflipped decision and flip it.
        for (;;) {
          if (decisions.empty()) return Outcome::Unsat;
          Decision d = decisions.back();
          decisions.pop_back();
          undo_to(d.trail_size);
          if (!d.flipped) {
            decisions.push_back({~d.lit, d.trail_size, true});
            const bool ok = enqueue(~d.lit);
            MPS_ASSERT(ok);
            break;
          }
        }
        continue;
      }
      // Conflicts are not the only progress marker: a propagation-heavy
      // instance can run for a long time with almost no backtracks, so the
      // stop conditions are also polled on a decision counter.
      if ((decisions_ & 127) == 0 && stop.expired()) return Outcome::Limit;
      const Lit branch = pick_branch();
      if (!branch.valid()) return Outcome::Sat;  // total assignment, all clauses satisfied
      ++decisions_;
      if (opts_.decision_log != nullptr) opts_.decision_log->push_back(branch);
      decisions.push_back({branch, trail_.size(), false});
      const bool ok = enqueue(branch);
      MPS_ASSERT(ok);
    }
  }

  const Cnf& cnf_;
  const SolveOptions& opts_;
  bool trivially_unsat_ = false;

  std::vector<Lit> arena_;
  std::vector<ClauseHead> heads_;
  std::vector<std::vector<Watch>> watches_;  // indexed by Lit.x
  std::vector<std::int8_t> assign_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t num_unassigned_ = 0;
  std::vector<double> score_;
  std::vector<double> activity_;
  double activity_inc_ = 1.0;
  VarHeap<HeapOrder> heap_;
  std::uint32_t conflict_clause_ = kNoClause;
  util::Rng rng_;

  std::int64_t decisions_ = 0;
  std::int64_t backtracks_ = 0;
  std::int64_t conflicts_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t restarts_ = 0;
};

}  // namespace

const char* engine_name(Engine e) { return e == Engine::Cdcl ? "cdcl" : "dpll"; }

std::optional<Engine> engine_from_name(std::string_view name) {
  if (name == "dpll") return Engine::Dpll;
  if (name == "cdcl") return Engine::Cdcl;
  return std::nullopt;
}

Outcome Solver::solve(const Cnf& cnf, Model* model, SolveStats* stats, const SolveOptions& opts) {
  obs::Span span("sat.solve");
  SolveStats local;
  Outcome outcome;
  if (opts.engine == Engine::Cdcl) {
    outcome = solve_cdcl(cnf, model, &local, opts);
  } else {
    outcome = Dpll(cnf, opts).run(model, &local);
  }
  if (span.active()) {
    // The SolveStats of this call double as the span payload (one source of
    // truth for traces and caller-reported statistics).
    span.arg("vars", static_cast<std::int64_t>(cnf.num_vars()));
    span.arg("clauses", static_cast<std::int64_t>(cnf.num_clauses()));
    span.arg("engine", static_cast<std::int64_t>(opts.engine));
    span.arg("decisions", local.decisions);
    span.arg("propagations", local.propagations);
    span.arg("conflicts", local.conflicts);
    span.arg("backjumps", local.backtracks);
    span.arg("learned", local.learned);
    span.arg("restarts", local.restarts);
    span.arg("outcome", static_cast<std::int64_t>(outcome));
    obs::counter_add("sat.solves", 1);
    obs::counter_add("sat.decisions", local.decisions);
    obs::counter_add("sat.propagations", local.propagations);
    obs::counter_add("sat.conflicts", local.conflicts);
    obs::counter_add("sat.backjumps", local.backtracks);
    obs::counter_add("sat.learned", local.learned);
    obs::counter_add("sat.restarts", local.restarts);
  }
  if (stats != nullptr) *stats = local;
  if (outcome == Outcome::Sat && model != nullptr) {
    MPS_ASSERT(cnf.satisfied_by(*model));
  }
  return outcome;
}

}  // namespace mps::sat
