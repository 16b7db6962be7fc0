#include "verify/verify.hpp"

#include <algorithm>
#include <deque>

#include "logic/extract.hpp"
#include "netlist/build.hpp"
#include "obs/obs.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "util/text.hpp"

namespace mps::verify {

namespace {

bool check_codes(const sg::StateGraph& g, std::vector<std::string>* issues) {
  bool ok = true;
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent()) {
        if (g.code_distance(s, e.to) != 0) {
          issues->push_back(util::format("silent edge %u->%u changes the code", s, e.to));
          ok = false;
        }
        continue;
      }
      if (g.code_distance(s, e.to) != 1 || g.value(e.to, e.sig) != e.rise ||
          g.value(s, e.sig) != !e.rise) {
        issues->push_back(util::format("edge %u->%u violates consistent assignment on %s", s,
                                       e.to, g.signal(e.sig).name.c_str()));
        ok = false;
      }
    }
  }
  return ok;
}

/// Under CSC every reachable code has one implied value per output, so
/// comparing each cover with it state by state is ON ⊆ cover ⊆ ¬OFF.
bool check_covers(const sg::StateGraph& g,
                  const std::vector<std::pair<std::string, logic::Cover>>& covers,
                  std::vector<std::string>* issues) {
  const std::size_t before = issues->size();
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const std::string& name = g.signal(s).name;
    const auto it = std::find_if(covers.begin(), covers.end(),
                                 [&](const auto& entry) { return entry.first == name; });
    if (it == covers.end()) {
      issues->push_back("missing cover for signal " + name);
    } else if (it->second.num_vars() != g.num_signals()) {
      issues->push_back(util::format("cover of %s has %zu variables, the graph %zu signals",
                                     name.c_str(), it->second.num_vars(), g.num_signals()));
    } else {
      for (sg::StateId st = 0; st < g.num_states(); ++st) {
        if (it->second.covers_code(g.code_words(st)) != logic::implied_value(g, st, s)) {
          issues->push_back("cover of " + name + " violates its ON/OFF spec");
          break;
        }
      }
    }
  }
  return issues->size() == before;
}

}  // namespace

Report verify_synthesis(const sg::StateGraph& g,
                        const std::vector<std::pair<std::string, logic::Cover>>& covers) {
  obs::Span span("verify.synthesis");
  span.arg("states", static_cast<std::int64_t>(g.num_states()));
  Report report;
  report.codes_consistent = check_codes(g, &report.issues);

  const auto analysis = sg::analyze_csc(g);
  report.csc_satisfied = analysis.satisfied();
  if (!report.csc_satisfied) {
    report.issues.push_back(util::format("%zu CSC conflict pairs remain",
                                         analysis.conflicts.size()));
  }

  const auto violations = sg::semi_modularity_violations(g);
  report.semi_modular = violations.empty();
  for (const auto& [state, sig] : violations) {
    report.issues.push_back(util::format("signal %s disabled entering state %u",
                                         g.signal(sig).name.c_str(), state));
  }

  // Empty `covers` skips the checks below unless the graph has no outputs
  // (then it is complete).  Under CSC conflicts the specs are undefined.
  if (covers.empty() && g.input_mask().count() < g.num_signals()) {
    report.covers_valid = report.circuit_ok = true;
  } else if (report.csc_satisfied) {
    report.covers_valid = check_covers(g, covers, &report.issues);
    // Gate level: materialize the complex-gate netlist and check it under
    // the unbounded-delay model against the graph it was read off.
    try {
      report.circuit = netlist::build_netlist(g, covers);
      report.si = netlist::verify_speed_independence(*report.circuit, g);
      report.circuit_ok = report.si.ok();
      for (const auto& issue : report.si.issues) report.issues.push_back("circuit: " + issue);
    } catch (const util::Error& e) {
      report.issues.push_back(std::string("circuit: ") + e.what());
    }
  }
  span.arg("ok", report.ok() ? 1 : 0);
  return report;
}

bool expansion_simulates(const sg::StateGraph& original, const sg::StateGraph& expanded,
                         const std::vector<sg::StateId>& origin) {
  if (origin.size() != expanded.num_states()) return false;
  const std::size_t n_orig = original.num_signals();

  // Backward: every original-signal edge of the expansion projects to an
  // original edge.
  for (sg::StateId es = 0; es < expanded.num_states(); ++es) {
    for (const sg::Edge& e : expanded.out(es)) {
      if (e.is_silent() || e.sig >= n_orig) continue;
      const sg::StateId from = origin[es];
      const sg::StateId to = origin[e.to];
      bool found = false;
      for (const sg::Edge& oe : original.out(from)) {
        if (!oe.is_silent() && oe.sig == e.sig && oe.rise == e.rise && oe.to == to) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }

  // Forward: from every expanded state, every original edge of its origin
  // is reachable through inserted-signal transitions alone.
  for (sg::StateId es = 0; es < expanded.num_states(); ++es) {
    const sg::StateId o = origin[es];
    for (const sg::Edge& oe : original.out(o)) {
      if (oe.is_silent()) continue;
      bool matched = false;
      std::deque<sg::StateId> frontier{es};
      std::vector<bool> seen(expanded.num_states(), false);
      seen[es] = true;
      while (!frontier.empty() && !matched) {
        const sg::StateId cur = frontier.front();
        frontier.pop_front();
        for (const sg::Edge& e : expanded.out(cur)) {
          if (e.sig == oe.sig && e.rise == oe.rise && origin[e.to] == oe.to) {
            matched = true;
            break;
          }
          if (e.sig >= n_orig && !seen[e.to]) {  // inserted-signal step
            seen[e.to] = true;
            frontier.push_back(e.to);
          }
        }
      }
      if (!matched) return false;
    }
  }
  return true;
}

}  // namespace mps::verify
