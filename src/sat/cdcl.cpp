// Conflict-driven clause learning on the shared arena/watcher substrate
// (sat/engine.hpp): first-UIP conflict analysis with learned-clause
// minimization, non-chronological backjumping, EVSIDS variable activity on
// the lazy max-heap, Luby restarts, and LBD-based clause-DB reduction with
// arena compaction.  GRASP (Marques-Silva & Sakallah) supplies the
// implication-graph analysis, Chaff (Moskewicz et al.) the watched-literal
// + VSIDS recipe, Glucose (Audemard & Simon) the LBD quality measure.
//
// The search path is pinned, like the DPLL engine's: the CdclPin test
// (20 Table-1 specs) and perfbench's `baselines` workload (all 23) check
// every direct and lavagno row's decisions, propagations, conflicts,
// restarts and learned-clause counts against BENCH_table1_cdcl.json, so any
// change to the search (branching, propagation order, learning, restarts,
// reduction) fails each row whose solves it touches until that reference is
// regenerated.  The fuzz harness (tests/sat_fuzz_test.cpp) pins agreement
// with DPLL on outcomes.
#include "sat/cdcl.hpp"

#include <algorithm>
#include <vector>

#include "sat/engine.hpp"
#include "util/common.hpp"

namespace mps::sat {

namespace {

/// Luby sequence value (1,1,2,1,1,2,4,...) for restart scaling — the
/// textbook recursive definition, iterativized as in MiniSat.
std::int64_t luby(std::int64_t i) {
  // Find the finite subsequence containing index i, then the position in it.
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::int64_t{1} << seq;
}

class Cdcl {
 public:
  Cdcl(const Cnf& cnf, const SolveOptions& opts) : cnf_(cnf), opts_(opts), heap_(Order{this}) {
    const std::size_t n = cnf.num_vars();
    lval_.assign(2 * n, kUnassignedValue);
    level_.assign(n, 0);
    reason_.assign(n, kNoClause);
    phase_.assign(n, 0);  // FALSE-first initial phase, like the DPLL engine
    seen_.assign(n, 0);
    activity_.assign(n, 0.0);
    watches_.assign(2 * n, {});

    arena_.reserve(cnf.num_clauses(), cnf.num_literals());
    for (const auto& clause : cnf.clauses()) {
      if (clause.empty()) {
        trivially_unsat_ = true;
        return;
      }
      if (clause.size() == 1) {
        if (!enqueue(clause[0], kNoClause)) {
          trivially_unsat_ = true;
          return;
        }
        continue;
      }
      add_clause(clause.data(), clause.size(), /*learned=*/false, /*lbd=*/0);
    }
    problem_end_ = arena_.end();
    heap_.build(n);
    // First clause-DB reduction once the learned set rivals the problem
    // itself; the budget doubles (saturating) after every reduction.
    reduce_budget_ = std::max<std::int64_t>(
        2000, static_cast<std::int64_t>(cnf.num_clauses()) / 2);
  }

  Outcome run(Model* model, SolveStats* stats) {
    util::Timer timer;
    // The solve's one stop condition: its own time limit or the caller's
    // shared deadline, whichever comes first.
    const util::Deadline stop =
        util::Deadline::after(opts_.time_limit_s).min(opts_.deadline);
    Outcome outcome = trivially_unsat_ ? Outcome::Unsat : search(stop);
    if (outcome == Outcome::Sat && model != nullptr) {
      shrink_model_toward_false();
      model->assign(cnf_.num_vars(), false);
      for (Var v = 0; v < cnf_.num_vars(); ++v) (*model)[v] = value_true(pos(v));
    }
    if (stats != nullptr) {
      stats->decisions = decisions_;
      stats->backtracks = backtracks_;
      stats->conflicts = conflicts_;
      stats->propagations = propagations_;
      stats->restarts = restarts_;
      stats->learned = learned_total_;
      stats->seconds = timer.seconds();
    }
    return outcome;
  }

 private:
  /// Each clause's one extra header word is its LBD ("glue"), which drives
  /// DB reduction (0 for problem clauses); reduce_db() overwrites it with
  /// kDropped to mark a clause for removal.
  using Arena = ClauseArena<2>;
  static constexpr std::uint32_t kDropped = 0xFFFFFFFFu;

  bool value_true(Lit l) const { return lval_[l.x] == 1; }
  bool value_false(Lit l) const { return lval_[l.x] == 0; }
  bool unassigned(Lit l) const { return lval_[l.x] == kUnassignedValue; }

  int current_level() const { return static_cast<int>(trail_lim_.size()); }

  std::uint32_t add_clause(const Lit* lits, std::size_t size, bool learned, std::uint32_t lbd) {
    const std::uint32_t cr = arena_.add(lits, size);
    arena_.extra(cr) = lbd;
    watches_[lits[0].x].push_back({cr, lits[1]});
    watches_[lits[1].x].push_back({cr, lits[0]});
    if (learned) learned_.push_back(cr);
    return cr;
  }

  /// Put `l` on the trail at the current level; false if it contradicts the
  /// current assignment.
  bool enqueue(Lit l, std::uint32_t reason) {
    const std::int8_t value = lval_[l.x];
    if (value != kUnassignedValue) return value == 1;
    lval_[l.x] = 1;
    lval_[(~l).x] = 0;
    const Var v = l.var();
    level_[v] = current_level();
    reason_[v] = reason;
    trail_.push_back(l);
    return true;
  }

  /// Two-watched-literal unit propagation with implication recording.
  /// Returns the conflicting clause, or kNoClause.
  std::uint32_t propagate() {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++propagations_;
      const Lit false_lit = ~p;
      auto& watch_list = watches_[false_lit.x];
      std::size_t keep = 0;
      std::uint32_t confl = kNoClause;
      for (std::size_t wi = 0; wi < watch_list.size(); ++wi) {
        const Watch w = watch_list[wi];
        if (confl != kNoClause) {
          watch_list[keep++] = w;
          continue;
        }
        // Plain blocker fast path: a true blocker short-circuits even when
        // it has left the watched pair.  The DPLL engine's stricter test
        // would visit other clauses and change this search, which
        // BENCH_table1_cdcl.json pins as it is.
        if (value_true(w.blocker)) {
          watch_list[keep++] = w;
          continue;
        }
        const std::span<Lit> lits = arena_.clause(w.clause);
        if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
        const Lit first = lits[0];
        if (value_true(first)) {
          watch_list[keep++] = {w.clause, first};
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < lits.size(); ++k) {
          if (!value_false(lits[k])) {
            std::swap(lits[1], lits[k]);
            watches_[lits[1].x].push_back({w.clause, first});
            moved = true;
            break;
          }
        }
        if (moved) continue;
        // Unit (implied `first` with this clause as reason) or conflicting.
        watch_list[keep++] = {w.clause, first};
        if (!enqueue(first, w.clause)) confl = w.clause;
      }
      watch_list.resize(keep);
      if (confl != kNoClause) return confl;
    }
    return kNoClause;
  }

  /// Undo every assignment above decision level `lvl`, saving phases.
  void backjump_to(int lvl) {
    if (current_level() <= lvl) return;
    const std::size_t target = trail_lim_[lvl];
    for (std::size_t i = trail_.size(); i-- > target;) {
      const Lit l = trail_[i];
      const Var v = l.var();
      phase_[v] = l.negated() ? 0 : 1;
      lval_[l.x] = kUnassignedValue;
      lval_[(~l).x] = kUnassignedValue;
      reason_[v] = kNoClause;
      heap_.insert(v);
    }
    trail_.resize(target);
    trail_lim_.resize(lvl);
    qhead_ = trail_.size();
  }

  void bump_var(Var v) {
    activity_[v] += var_inc_;
    heap_.increased(v);
    if (activity_[v] > 1e100) {
      for (auto& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
      heap_.rebuild();  // uniform rescale, but cheap and unconditionally safe
    }
  }

  /// First-UIP conflict analysis.  Fills `learnt` (asserting literal first),
  /// returns the backjump level and the clause's LBD.
  void analyze(std::uint32_t confl, std::vector<Lit>* learnt, int* out_level,
               std::uint32_t* out_lbd) {
    learnt->clear();
    learnt->push_back(Lit{});  // slot for the asserting literal
    int counter = 0;           // current-level vars pending resolution
    Lit p{};                   // invalid: the initial conflict resolves all lits
    std::size_t index = trail_.size();

    for (;;) {
      MPS_ASSERT(confl != kNoClause);
      for (const Lit q : arena_.clause(confl)) {
        if (p.valid() && q.var() == p.var()) continue;  // the resolved-on literal
        const Var v = q.var();
        if (seen_[v] == 0 && level_[v] > 0) {
          seen_[v] = 1;
          bump_var(v);
          if (level_[v] >= current_level()) {
            ++counter;
          } else {
            learnt->push_back(q);
          }
        }
      }
      // Walk the trail backwards to the next marked literal of this level.
      while (seen_[trail_[index - 1].var()] == 0) --index;
      p = trail_[--index];
      confl = reason_[p.var()];
      seen_[p.var()] = 0;
      if (--counter == 0) break;  // p is the first UIP
    }
    (*learnt)[0] = ~p;

    // Learned-clause minimization (local / "basic" mode): a non-asserting
    // literal is redundant when its reason's other literals are all either
    // marked or at level 0 — resolving it away cannot add anything new.
    // Marks must be wiped for the *pre*-minimization literal set (removed
    // literals keep their mark during the scan, as the algorithm requires),
    // so remember it before filtering.
    seen_[p.var()] = 1;  // the asserting literal counts as marked
    analyze_clear_.clear();
    for (const Lit q : *learnt) analyze_clear_.push_back(q.var());
    std::size_t kept = 1;
    for (std::size_t i = 1; i < learnt->size(); ++i) {
      const Lit q = (*learnt)[i];
      const std::uint32_t r = reason_[q.var()];
      bool redundant = r != kNoClause;
      if (redundant) {
        for (const Lit x : arena_.clause(r)) {
          if (x.var() == q.var()) continue;
          if (level_[x.var()] > 0 && seen_[x.var()] == 0) {
            redundant = false;
            break;
          }
        }
      }
      if (!redundant) (*learnt)[kept++] = q;
    }
    learnt->resize(kept);

    // Backjump level: the deepest level below the asserting literal's; move
    // that literal to position 1 so both watches start out sane.
    int blevel = 0;
    if (learnt->size() > 1) {
      std::size_t max_i = 1;
      for (std::size_t i = 2; i < learnt->size(); ++i) {
        if (level_[(*learnt)[i].var()] > level_[(*learnt)[max_i].var()]) max_i = i;
      }
      std::swap((*learnt)[1], (*learnt)[max_i]);
      blevel = level_[(*learnt)[1].var()];
    }
    *out_level = blevel;

    // LBD: number of distinct decision levels in the clause (Glucose's
    // quality measure; low-LBD clauses connect few levels and stay useful).
    ++lbd_stamp_counter_;
    if (lbd_stamp_.size() < trail_lim_.size() + 2) lbd_stamp_.resize(trail_lim_.size() + 2, 0);
    std::uint32_t lbd = 0;
    for (const Lit q : *learnt) {
      const int lv = level_[q.var()];
      if (lbd_stamp_[lv] != lbd_stamp_counter_) {
        lbd_stamp_[lv] = lbd_stamp_counter_;
        ++lbd;
      }
    }
    *out_lbd = lbd;

    for (const Var v : analyze_clear_) seen_[v] = 0;
  }

  /// LBD-based clause-DB reduction with arena compaction.  Only ever called
  /// at decision level 0, where no reason references a stored clause (level-0
  /// implications are never resolved on), so clause references are free to
  /// move: survivors slide down in place and the watch lists are rebuilt
  /// from scratch with normalized (non-false-first) watch positions.
  void reduce_db() {
    MPS_ASSERT(current_level() == 0);
    // Rank learned clauses: glue clauses (LBD <= 2) are always kept, the
    // better (lower-LBD, then shorter) half of the rest survives.
    std::vector<std::uint32_t> removable;
    removable.reserve(learned_.size());
    for (const std::uint32_t cr : learned_) {
      if (arena_.extra(cr) > 2) removable.push_back(cr);
    }
    std::sort(removable.begin(), removable.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (arena_.extra(a) != arena_.extra(b)) return arena_.extra(a) < arena_.extra(b);
      if (arena_.size(a) != arena_.size(b)) return arena_.size(a) < arena_.size(b);
      return a > b;  // prefer younger clauses on ties
    });
    for (std::size_t i = removable.size() / 2; i < removable.size(); ++i) {
      arena_.extra(removable[i]) = kDropped;
    }

    // Compact: problem clauses keep their place at the front, surviving
    // learned clauses follow in their old order.  Reasons are all kNoClause
    // at level 0, so only learned_ and the watches hold references.
    arena_.erase_if([&](std::uint32_t cr) { return arena_.extra(cr) == kDropped; });
    learned_.clear();

    // Rebuild watches with the level-0 invariant restored: watch two
    // non-false literals where they exist; a clause unit under the level-0
    // assignment enqueues its literal (permanently true from here on).
    for (auto& wl : watches_) wl.clear();
    for (std::uint32_t cr = 0; cr != arena_.end(); cr = arena_.next(cr)) {
      if (cr >= problem_end_) learned_.push_back(cr);
      const std::span<Lit> lits = arena_.clause(cr);
      std::uint32_t nonfalse = 0;
      for (std::size_t k = 0; k < lits.size() && nonfalse < 2; ++k) {
        if (!value_false(lits[k])) std::swap(lits[nonfalse++], lits[k]);
      }
      MPS_ASSERT(nonfalse > 0);  // a falsified clause would have ended the search
      if (nonfalse == 1 && unassigned(lits[0])) {
        const bool ok = enqueue(lits[0], kNoClause);
        MPS_ASSERT(ok);
      }
      watches_[lits[0].x].push_back({cr, lits[1]});
      watches_[lits[1].x].push_back({cr, lits[0]});
    }
    qhead_ = 0;  // replay level-0 propagation against the rebuilt watches
  }

  /// Flip every true variable that no problem clause needs to FALSE, in
  /// ascending variable order — deterministic.  Phase saving finds models
  /// shaped by the search trajectory; the DPLL reference's FALSE-first
  /// branching finds mostly-false ones, and downstream consumers are
  /// sensitive to that shape: the encoding decoders drop constant columns,
  /// and the Lavagno baseline inserts one state signal per non-constant
  /// decoded column, so gratuitous true assignments become gratuitous
  /// inserted signals and blow up the expanded state graph (observed: mr0
  /// Lavagno 2,210 → 14,748 states and a LIMIT before this pass).  One
  /// sweep over the problem clauses restores the mostly-false shape
  /// without constraining the search that found the model.
  void shrink_model_toward_false() {
    const auto& clauses = cnf_.clauses();
    std::vector<std::uint32_t> true_count(clauses.size(), 0);
    std::vector<std::vector<std::uint32_t>> occ(2 * cnf_.num_vars());
    for (std::uint32_t ci = 0; ci < clauses.size(); ++ci) {
      for (const Lit l : clauses[ci]) {
        occ[l.x].push_back(ci);
        if (value_true(l)) ++true_count[ci];
      }
    }
    for (Var v = 0; v < cnf_.num_vars(); ++v) {
      const Lit p = pos(v);
      if (!value_true(p)) continue;
      bool needed = false;
      for (const std::uint32_t ci : occ[p.x]) {
        if (true_count[ci] < 2) {
          needed = true;
          break;
        }
      }
      if (needed) continue;
      lval_[p.x] = 0;
      lval_[(~p).x] = 1;
      for (const std::uint32_t ci : occ[p.x]) --true_count[ci];
      for (const std::uint32_t ci : occ[(~p).x]) ++true_count[ci];
    }
  }

  Lit phased(Var v) const { return Lit::make(v, phase_[v] != 1); }

  Lit pick_branch() {
    for (;;) {
      const Var v = heap_.pop();
      if (v == kNoVar) return Lit{};
      if (unassigned(pos(v))) return phased(v);
    }
  }

  Outcome search(const util::Deadline& stop) {
    std::int64_t restart_budget =
        opts_.restart_interval > 0 ? opts_.restart_interval * luby(0) : 0;
    std::int64_t conflicts_since_restart = 0;
    std::int64_t luby_index = 0;
    std::vector<Lit> learnt;

    for (;;) {
      const std::uint32_t confl = propagate();
      if (confl != kNoClause) {
        ++conflicts_;
        ++conflicts_since_restart;
        if (current_level() == 0) return Outcome::Unsat;
        if (opts_.max_backtracks >= 0 && conflicts_ > opts_.max_backtracks) {
          return Outcome::Limit;
        }
        if ((conflicts_ & 255) == 0 && stop.expired()) return Outcome::Limit;

        int blevel = 0;
        std::uint32_t lbd = 0;
        analyze(confl, &learnt, &blevel, &lbd);
        backjump_to(blevel);
        ++backtracks_;
        if (learnt.size() == 1) {
          MPS_ASSERT(blevel == 0);
          const bool ok = enqueue(learnt[0], kNoClause);
          MPS_ASSERT(ok);
        } else {
          const std::uint32_t cr = add_clause(learnt.data(), learnt.size(), true, lbd);
          const bool ok = enqueue(learnt[0], cr);
          MPS_ASSERT(ok);
        }
        ++learned_total_;
        var_inc_ *= (1.0 / 0.95);  // EVSIDS: decay by inflating the increment
        continue;
      }
      if ((decisions_ & 127) == 0 && stop.expired()) return Outcome::Limit;
      // Restart / clause-DB reduction only at quiescence: reduce_db() needs
      // the level-0 assignment closed under propagation to restore the watch
      // invariant during the arena rebuild.
      const bool restart_due =
          opts_.restart_interval > 0 && conflicts_since_restart >= restart_budget;
      const bool reduce_due =
          static_cast<std::int64_t>(learned_.size()) >= reduce_budget_;
      if (restart_due || reduce_due) {
        backjump_to(0);
        if (reduce_due) {
          reduce_db();
          reduce_budget_ = saturating_double(reduce_budget_);
        }
        if (restart_due) {
          ++restarts_;
          ++luby_index;
          conflicts_since_restart = 0;
          restart_budget = opts_.restart_interval * luby(luby_index);
        }
        continue;  // replay propagation against the rebuilt watches
      }
      const Lit branch = pick_branch();
      if (!branch.valid()) return Outcome::Sat;  // total assignment, all clauses satisfied
      ++decisions_;
      if (opts_.decision_log != nullptr) opts_.decision_log->push_back(branch);
      trail_lim_.push_back(trail_.size());
      const bool ok = enqueue(branch, kNoClause);
      MPS_ASSERT(ok);
    }
  }

  /// EVSIDS order: higher activity first, lower var id on ties.
  struct Order {
    const Cdcl* self;
    bool operator()(Var a, Var b) const {
      return self->activity_[a] > self->activity_[b] ||
             (self->activity_[a] == self->activity_[b] && a < b);
    }
  };

  const Cnf& cnf_;
  const SolveOptions& opts_;
  bool trivially_unsat_ = false;

  Arena arena_;
  std::uint32_t problem_end_ = 0;           // arena offset where learned clauses start
  std::vector<std::uint32_t> learned_;      // references of stored learned clauses
  std::vector<std::vector<Watch>> watches_;  // indexed by Lit.x

  std::vector<std::int8_t> lval_;  // per literal (Lit.x): 1 true, 0 false, or unassigned
  std::vector<std::int32_t> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<std::int8_t> phase_;  // saved polarity per var (0 initial)
  std::vector<std::int8_t> seen_;   // analyze() scratch marks
  std::vector<Var> analyze_clear_;  // vars whose seen_ mark analyze() must wipe
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;  // trail length at each decision level
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  VarHeap<Order> heap_;

  std::vector<std::uint64_t> lbd_stamp_;  // per-level stamps for LBD counting
  std::uint64_t lbd_stamp_counter_ = 0;

  std::int64_t reduce_budget_ = 2000;

  std::int64_t decisions_ = 0;
  std::int64_t backtracks_ = 0;
  std::int64_t conflicts_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t learned_total_ = 0;
};

}  // namespace

Outcome solve_cdcl(const Cnf& cnf, Model* model, SolveStats* stats, const SolveOptions& opts) {
  return Cdcl(cnf, opts).run(model, stats);
}

}  // namespace mps::sat
