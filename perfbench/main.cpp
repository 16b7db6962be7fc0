// perfbench: the synthesis benchmark program (see README.md).
//
//   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--corpus-seed N] [--root DIR] [--trace-out FILE]
//
// A closed loop: one process, one operation in flight, operations run back
// to back in passes over the workload's inputs (in a --seed-shuffled order)
// until --seconds have been measured.  --trace 0 makes at least two passes
// and prints the end-to-end metrics; --trace 1 runs every operation both
// untraced and traced in each pass and prints the per-layer metrics.  The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/common.hpp"
#include "util/parse.hpp"
#include "util/text.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

/// Set-ups per burst (see run()); setup_s is the median over all bursts.
constexpr int kSetupRepeats = 3;
/// Untraced passes a --trace 0 run makes at least, however long a pass is.
constexpr std::size_t kMinPasses = 2;

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"pass_s", "s"},       {"input_geomean_ms", "ms"}, {"slowest_input_s", "s"},
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},      {"ok_ops_share", "ratio"},
    {"final_states", "count"},
};

const std::vector<Metric> kPerLayer = {
    {"logic.extract_s", "s"},
    {"logic.heuristic_s", "s"},
    {"logic.exact_s", "s"},
    {"logic.on_minterms", "count"},
    {"logic.off_minterms", "count"},
    {"logic.cubes", "count"},
    {"logic.exact_attempts", "count"},
    {"logic.exact_finished", "count"},
    {"logic.exact_wins", "ratio"},
    {"core.insert_s", "s"},
    {"core.module_s", "s"},
    {"core.modules_computed", "count"},
    {"core.modules_adopted", "count"},
    {"core.speculation_waste", "ratio"},
    {"core.module_states_ratio", "ratio"},
    {"core.input_set_s", "s"},
    {"core.projection_s", "s"},
    {"core.partition_sat_s", "s"},
    {"core.propagate_s", "s"},
    {"encoding.vars", "count"},
    {"encoding.clauses", "count"},
    {"sat.solve_s", "s"},
    {"sat.formulas", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"sat.props_per_s", "1/s"},
    {"sat.limit_hits", "count"},
    {"baseline.direct_insert_s", "s"},
    {"baseline.lavagno_insert_s", "s"},
    {"baseline.lavagno_insertions", "count"},
    {"sg.from_stg_s", "s"},
    {"sg.states_built", "count"},
    {"sg.analyze_csc_s", "s"},
    {"sg.analyze_csc_calls", "count"},
    {"sg.expand_s", "s"},
    {"sg.expanded_states", "count"},
    {"netlist.build_s", "s"},
    {"netlist.verilog_s", "s"},
    {"netlist.verify_si_s", "s"},
    {"netlist.si_states", "count"},
    {"verify.synthesis_s", "s"},
    {"svc.self_s", "s"},
    {"bdd.compile_s", "s"},
    {"bdd.reach_s", "s"},
    {"bdd.csc_s", "s"},
    {"bdd.teardown_s", "s"},
    {"bdd.nodes", "count"},
    {"bdd.iterations", "count"},
    {"bdd.gc_collections", "count"},
    {"quality.literals", "count"},
    {"quality.transistors", "count"},
    {"quality.inserted_signals", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Everything the passes of one run recorded.
struct Record {
  explicit Record(std::size_t n) : op_seconds(n), traced_attributed(n), first(n) {}

  std::vector<std::vector<double>> op_seconds;  ///< untraced, per op
  std::vector<double> pass_seconds;             ///< untraced
  std::vector<double> traced_pass_seconds;
  std::vector<std::vector<double>> traced_attributed;  ///< per op
  std::vector<LayerTotals> traced_totals;              ///< per traced pass
  std::vector<std::optional<Outcome>> first;           ///< first untraced outcome per op
  long long attempted = 0, failed = 0;
  std::map<std::string, int> failures;  ///< "input method: problem" -> times seen
};

/// Check one pass's outcomes (index-aligned with `ops`), record them and
/// return the pass time.
double record_pass(const Workload& wl, const std::vector<Op>& ops, std::vector<Outcome>& out,
                   Record& rec) {
  wl.cross_check(ops, out);
  double pass = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Outcome& o = out[i];
    pass += o.seconds;
    if (!rec.first[i].has_value()) {
      rec.first[i] = o;
    } else if (o.signature != rec.first[i]->signature) {
      o.problems.push_back("output " + o.signature + " differs from the first pass's " +
                           rec.first[i]->signature);
    }
    ++rec.attempted;
    if (!o.problems.empty()) ++rec.failed;
    for (const std::string& p : o.problems) {
      ++rec.failures[ops[i].input + " " + ops[i].method + ": " + p];
    }
  }
  return pass;
}

/// One pass over every operation, in a shuffled order.  Traced, each
/// operation runs untraced and traced back to back, alternating which goes
/// first, so the overhead and svc.self_s compare neighbours in time.  The
/// heap is trimmed before every operation, so each one starts from the
/// footprint a fresh process would have and peak_rss_mb does not collect
/// the allocator's leftovers from earlier operations.
void run_pass(const Workload& wl, const std::vector<Op>& ops, Tracer* tr, util::Rng& rng,
              Record& rec) {
  std::vector<std::size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  std::vector<Outcome> plain(ops.size()), traced(ops.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const bool traced_first = tr != nullptr && k % 2 == 1;
    auto run_traced = [&] {
      malloc_trim(0);
      traced[i] = wl.traced(ops[i], *tr);
    };
    if (traced_first) run_traced();
    malloc_trim(0);
    plain[i] = wl.run(ops[i]);
    if (tr != nullptr && !traced_first) run_traced();
  }
  rec.pass_seconds.push_back(record_pass(wl, ops, plain, rec));
  for (std::size_t i = 0; i < ops.size(); ++i) rec.op_seconds[i].push_back(plain[i].seconds);
  if (tr == nullptr) return;

  rec.traced_pass_seconds.push_back(record_pass(wl, ops, traced, rec));
  LayerTotals totals = tr->take_totals();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Outcome& o = traced[i];
    rec.traced_attributed[i].push_back(o.attributed);
    totals["quality.literals"] += static_cast<double>(o.literals);
    totals["quality.transistors"] += static_cast<double>(o.transistors);
    totals["quality.inserted_signals"] += static_cast<double>(o.inserted);
    totals["trace.op_s"] += o.seconds;
    totals["trace.attributed_s"] += o.attributed;
  }
  rec.traced_totals.push_back(std::move(totals));
}

LayerTotals end_to_end(const Record& rec, const std::vector<double>& setup_times) {
  std::vector<double> per_op;
  for (const auto& s : rec.op_seconds) per_op.push_back(median(s));
  double log_sum = 0.0;
  for (const double s : per_op) log_sum += std::log(s);
  double final_states = 0.0;
  for (const auto& o : rec.first) final_states += o->final_states;
  return {
      {"pass_s", median(rec.pass_seconds)},
      {"input_geomean_ms", 1000.0 * std::exp(log_sum / static_cast<double>(per_op.size()))},
      {"slowest_input_s", *std::max_element(per_op.begin(), per_op.end())},
      {"setup_s", median(setup_times)},
      {"peak_rss_mb", peak_rss_mb()},
      {"ok_ops_share",
       static_cast<double>(rec.attempted - rec.failed) / static_cast<double>(rec.attempted)},
      {"final_states", final_states},
  };
}

LayerTotals per_layer(const Workload& wl, const Record& rec, const LayerTotals& setup_totals) {
  std::set<std::string> keys;
  for (const LayerTotals& t : rec.traced_totals) {
    for (const auto& [k, v] : t) keys.insert(k);
  }
  LayerTotals m;
  for (const std::string& k : keys) {
    std::vector<double> values;
    for (const LayerTotals& t : rec.traced_totals) {
      const auto it = t.find(k);
      values.push_back(it == t.end() ? 0.0 : it->second);
    }
    m[k] = median(values);
  }
  for (const auto& [k, v] : setup_totals) m[k] += v;

  auto ratio = [&](const char* num, const char* den) {
    return m[den] > 0.0 ? m[num] / m[den] : 0.0;
  };
  m["logic.exact_wins"] = ratio("logic.exact_won", "logic.exact_attempts");
  m["core.speculation_waste"] =
      m["core.modules_computed"] > 0.0 ? 1.0 - ratio("core.modules_adopted", "core.modules_computed")
                                       : 0.0;
  m["core.module_states_ratio"] = ratio("core.module_states", "core.graph_states");
  m["sat.props_per_s"] = ratio("sat.propagations", "sat.solve_s");
  if (wl.via_service()) {
    double self = 0.0;
    for (std::size_t i = 0; i < rec.op_seconds.size(); ++i) {
      self += median(rec.op_seconds[i]) - median(rec.traced_attributed[i]);
    }
    m["svc.self_s"] = self;
  }
  m["trace.overhead_share"] =
      median(rec.traced_pass_seconds) / median(rec.pass_seconds) - 1.0;
  m["trace.unattributed_share"] = 1.0 - ratio("trace.attributed_s", "trace.op_s");
  return m;
}

std::string result_json(const Record& rec, const std::vector<Metric>& metrics,
                        LayerTotals& values) {
  std::string out = util::format("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                                 "\"metrics\": {",
                                 rec.failed == 0 ? "true" : "false", rec.attempted, rec.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += util::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                        metrics[i].name, values[metrics[i].name], metrics[i].unit);
  }
  return out + "}}";
}

int usage(const char* argv0, const std::string& error) {
  std::string names;
  for (const std::string& n : workload_names()) names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "error: %s\nusage: %s --workload %s [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--corpus-seed N] [--root DIR] [--trace-out FILE]\n",
               error.c_str(), argv0, names.c_str());
  return 2;
}

int run(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    auto number = [&](std::int64_t lo, std::int64_t hi) {
      const auto n = util::parse_int(value, lo, hi);
      if (!n.has_value()) throw util::Error(flag + " expects an integer, got '" + value + "'");
      return *n;
    };
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(number(0, INT64_MAX));
    } else if (flag == "--corpus-seed") {
      cfg.corpus_seed = static_cast<std::uint64_t>(number(0, INT64_MAX));
    } else if (flag == "--seconds") {
      cfg.seconds = static_cast<double>(number(1, 3600));
    } else if (flag == "--trace") {
      cfg.trace = number(0, 1) == 1;
    } else if (flag == "--root") {
      cfg.root = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return usage(argv[0], "unknown flag " + flag);
    }
  }
  cfg.threads = util::ThreadPool::hardware_threads();
  const std::unique_ptr<Workload> wl = make_workload(cfg.workload, cfg);
  if (wl == nullptr) return usage(argv[0], "unknown workload '" + cfg.workload + "'");

  // Set-up is timed in bursts, before the first pass and after every pass,
  // so its median samples the machine across the whole run rather than at
  // one instant.  The last set-up of the first burst feeds the tracer.
  Tracer tracer(cfg.workload);
  std::vector<double> setup_times;
  auto set_up = [&](Tracer* tr) {
    std::vector<Op> ops;
    for (int k = 0; k < kSetupRepeats; ++k) {
      util::Timer timer;
      ops = wl->setup(k + 1 == kSetupRepeats ? tr : nullptr);
      setup_times.push_back(timer.seconds());
    }
    return ops;
  };
  const std::vector<Op> ops = set_up(cfg.trace ? &tracer : nullptr);
  const LayerTotals setup_totals = tracer.take_totals();

  Record rec(ops.size());
  util::Rng rng(cfg.seed);
  const std::size_t min_passes = cfg.trace ? 1 : kMinPasses;
  util::Timer clock;
  do {
    run_pass(*wl, ops, cfg.trace ? &tracer : nullptr, rng, rec);
    set_up(nullptr);
  } while (clock.seconds() < cfg.seconds || rec.pass_seconds.size() < min_passes);
  if (cfg.trace && !cfg.trace_out.empty()) tracer.write(cfg.trace_out);

  std::printf("workload %s: seed %llu, corpus seed %llu, %u modular threads, %zu operations\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.corpus_seed), cfg.threads, ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::printf("input %-16s %-8s signals=%zu initial_states=%.0f median_s=%.6f\n",
                ops[i].input.c_str(), ops[i].method.c_str(), rec.first[i]->signals,
                rec.first[i]->initial_states, median(rec.op_seconds[i]));
  }
  std::printf("untraced passes (s):");
  for (const double s : rec.pass_seconds) std::printf(" %.3f", s);
  std::printf("\ntraced passes (s):");
  for (const double s : rec.traced_pass_seconds) std::printf(" %.3f", s);
  std::printf("\n");
  for (const auto& [failure, count] : rec.failures) {
    std::printf("FAILED (%dx) %s\n", count, failure.c_str());
  }

  const std::vector<Metric>& metrics = cfg.trace ? kPerLayer : kEndToEnd;
  LayerTotals values = cfg.trace ? per_layer(*wl, rec, setup_totals) : end_to_end(rec, setup_times);
  for (const auto& [name, v] : values) std::printf("  %-32s %.6g\n", name.c_str(), v);
  std::printf("%s\n", result_json(rec, metrics, values).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
