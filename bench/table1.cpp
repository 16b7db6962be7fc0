// Table 1 reproduction: all 23 STG benchmarks through the three methods —
// our modular partitioning, Vanbekbergen et al.'s direct (no-decomposition)
// SAT, and the Lavagno/Moon-style monolithic insertion — printing the same
// columns the paper reports, side by side with the paper's values.
//
// Absolute CPU times are not comparable (the paper used a SUN SPARC-2);
// the claims under reproduction are the *shape*: the modular method
// finishes everywhere and fast, the direct method's formulas defeat
// branch-and-bound search on the large entries ("SAT Backtrack Limit"),
// and the monolithic method costs one to three orders of magnitude more
// time than the modular one on large graphs.
//
// The per-benchmark rows are independent, so they are computed on a
// util::ThreadPool (`--threads N`; `--threads 1` reproduces the serial
// run) and printed in table order afterwards.  `--json PATH` additionally
// writes a machine-readable report (one record per benchmark × method)
// for the perf-regression harness; see BENCH_table1.json.  `--engine cdcl`
// swaps every sub-solve onto the clause-learning engine (the run that
// retires the LIMIT rows; committed as BENCH_table1_cdcl.json) while the
// default dpll run stays bit-identical to the paper-faithful reference.
// `--cache-dir D`
// routes every (benchmark, method) cell through the svc::Cache result
// cache: a warm re-run reads all rows back from disk (the printed cpu
// columns then show the original cold-run times) and reports the hit rate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mps.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mps;

std::string num(std::size_t v) { return std::to_string(v); }
std::string secs(double s) { return util::format("%.2f", s); }

/// One method's printed columns; a failed run shows "-" and its outcome.
struct Cols {
  std::string states = "-", sigs = "-", area = "-", cpu;
};

struct Row {
  std::string name;
  std::string init_states, init_sigs;
  Cols m, v, l;  // modular, direct (Vanbekbergen), Lavagno-style (no states column)
};

void print_row(const Row& r) {
  std::printf("%-15s|%6s %5s |%7s %5s %5s %8s |%7s %5s %5s %8s |%5s %5s %8s\n",
              r.name.c_str(), r.init_states.c_str(), r.init_sigs.c_str(),
              r.m.states.c_str(), r.m.sigs.c_str(), r.m.area.c_str(), r.m.cpu.c_str(),
              r.v.states.c_str(), r.v.sigs.c_str(), r.v.area.c_str(), r.v.cpu.c_str(),
              r.l.sigs.c_str(), r.l.area.c_str(), r.l.cpu.c_str());
}

/// One (benchmark, method) record of the machine-readable report.
struct JsonRow {
  const char* method;  // "modular" | "direct" | "lavagno"
  std::size_t states = 0, signals = 0, literals = 0;
  std::size_t gates = 0, transistors = 0;  // complex-gate netlist (0 on failure)
  const char* outcome = "ok";  // "ok" | "LIMIT" | "FAIL"
  sat::SolverTotals solver;    // search effort behind this row (schema v3/v4)
  double seconds = 0.0;

  bool ok() const { return std::strcmp(outcome, "ok") == 0; }
};

/// Everything one benchmark contributes: its two printed rows plus one
/// record per method (modular, direct, lavagno) for the report and the
/// summary.  Filled concurrently, consumed in order.
struct BenchResult {
  Row ours;
  Row paper;
  JsonRow json[3];
};

/// ok, LIMIT (a budget tripped) or FAIL — the same rule for every method.
const char* outcome(const svc::Artifact& a) {
  if (a.success) return "ok";
  return a.hit_limit ? "LIMIT" : "FAIL";
}

/// Fill one method's printed columns and report record from its artifact.
void take(const char* method, const svc::Artifact& a, Cols* cols, JsonRow* json) {
  if (a.success) {
    *cols = {num(a.final_states), num(a.final_signals), num(a.literals), secs(a.seconds)};
  } else {
    *cols = {.cpu = outcome(a)};
  }
  *json = {method,        a.final_states, a.final_signals, a.literals, a.gates,
           a.transistors, outcome(a),     a.solver,        a.seconds};
}

/// The table's per-method limits on top of the svc defaults.  The direct
/// and lavagno sub-solve caps are tighter than mps_synth's (a survey over
/// 23 benchmarks, not one user run), so these rows get their own cache
/// digests — a table1 cache never collides with daemon entries.
svc::RequestOptions table_request_options(const std::string& method, sat::Engine engine) {
  svc::RequestOptions ropts = svc::default_request_options(method);
  ropts.direct.solve.max_backtracks = 5000000;
  ropts.direct.solve.time_limit_s = 60.0;
  ropts.lavagno.solve.max_backtracks = 2000000;
  ropts.lavagno.solve.time_limit_s = 20.0;
  ropts.lavagno.time_limit_s = 300.0;
  svc::set_engine(&ropts, engine);  // part of every fingerprint: distinct cache digests
  return ropts;
}

/// Run one (benchmark, method) cell, through the result cache when one is
/// given.  The quality columns of a cache hit are bit-identical to a fresh
/// run by construction: they are read back from the serialized artifact the
/// fresh run produced.  Only `seconds` is historical (the cold run's time).
svc::Artifact run_method(const stg::Stg& spec, const std::string& method, sat::Engine engine,
                         svc::Cache* cache) {
  const svc::RequestOptions ropts = table_request_options(method, engine);
  if (cache == nullptr) return svc::run_synthesis(spec, ropts);
  const std::string digest = svc::request_digest(spec, ropts);
  if (auto payload = cache->get(digest); payload.has_value()) {
    if (auto cached = svc::Artifact::deserialize(*payload); cached.has_value()) {
      return *std::move(cached);
    }
  }
  svc::Artifact a = svc::run_synthesis(spec, ropts);
  cache->put(digest, a.serialize());
  return a;
}

BenchResult run_benchmark(const benchmarks::Benchmark& b, sat::Engine engine,
                          svc::Cache* cache) {
  BenchResult out;
  const stg::Stg spec = b.make();
  const char* methods[] = {"modular", "direct", "lavagno"};
  Cols* cols[] = {&out.ours.m, &out.ours.v, &out.ours.l};
  for (int i = 0; i < 3; ++i) {
    const svc::Artifact a = run_method(spec, methods[i], engine, cache);
    take(methods[i], a, cols[i], &out.json[i]);
    if (i == 0) {
      out.ours.init_states = num(a.initial_states);
      out.ours.init_sigs = num(a.initial_signals);
    }
  }
  out.ours.name = b.name;

  Row& paper = out.paper;
  paper.name = "  (paper)";
  paper.init_states = num(b.paper.initial_states);
  paper.init_sigs = num(b.paper.initial_signals);
  paper.m = {num(b.paper.m_final_states), num(b.paper.m_final_signals), num(b.paper.m_area),
             secs(b.paper.m_cpu_s)};
  paper.v = b.paper.v_limit ? Cols{.cpu = "LIMIT"}
                            : Cols{num(b.paper.v_final_states), num(b.paper.v_final_signals),
                                   num(b.paper.v_area), secs(b.paper.v_cpu_s)};
  paper.l = b.paper.l_note != nullptr
                ? Cols{.cpu = "ERROR"}
                : Cols{.sigs = num(b.paper.l_final_signals),
                       .area = num(b.paper.l_area),
                       .cpu = secs(b.paper.l_cpu_s)};
  return out;
}

/// Machine-readable report for the perf-regression harness: one record per
/// (benchmark, method) with the quality columns and wall time, plus totals.
/// schema_version 2 added the per-row complex-gate netlist columns
/// ("gates", "transistors"); schema_version 3 added the per-row solver
/// effort ("decisions", "propagations", "conflicts"); schema_version 4
/// adds the top-level "engine" and the per-row "restarts"/"learned"
/// (both 0 under dpll).  All earlier fields are unchanged: a schema-3
/// consumer reading only its own fields sees identical values.
/// Compare two runs with a plain diff or jq query; the quality fields must
/// never drift between commits, the seconds may — and so may the solver
/// columns of LIMIT rows whose solve was cut off by wall-clock (the
/// backtrack-capped and finishing rows are search-path-determined).
/// BENCH_table1.json in the repository root is the committed reference run
/// (`--threads 1`); BENCH_table1_cdcl.json is the `--engine cdcl` run.
void write_json(const char* path, const std::vector<benchmarks::Benchmark>& benches,
                const std::vector<BenchResult>& results, sat::Engine engine, unsigned threads,
                double wall, double cpu_total) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"table1\",\n  \"schema_version\": 4,\n"
               "  \"engine\": \"%s\",\n  \"threads\": %u,\n  \"rows\": [\n",
               sat::engine_name(engine), threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const JsonRow& r = results[i].json[j];
      std::fprintf(f,
                   "    {\"bench\": \"%s\", \"method\": \"%s\", \"states\": %zu, "
                   "\"signals\": %zu, \"literals\": %zu, \"gates\": %zu, "
                   "\"transistors\": %zu, \"outcome\": \"%s\", "
                   "\"decisions\": %lld, \"propagations\": %lld, \"conflicts\": %lld, "
                   "\"restarts\": %lld, \"learned\": %lld, "
                   "\"seconds\": %.3f}%s\n",
                   benches[i].name.c_str(), r.method, r.states, r.signals, r.literals,
                   r.gates, r.transistors, r.outcome,
                   static_cast<long long>(r.solver.decisions),
                   static_cast<long long>(r.solver.propagations),
                   static_cast<long long>(r.solver.conflicts),
                   static_cast<long long>(r.solver.restarts),
                   static_cast<long long>(r.solver.learned),
                   r.seconds, (i + 1 == results.size() && j == 2) ? "" : ",");
    }
  }
  int ok = 0, limit = 0, fail = 0;
  for (const BenchResult& r : results) {
    for (const JsonRow& row : r.json) {
      if (row.ok()) ++ok;
      else if (std::strcmp(row.outcome, "LIMIT") == 0) ++limit;
      else ++fail;
    }
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"rows_ok\": %d, \"rows_limit\": %d, "
               "\"rows_fail\": %d, \"wall_seconds\": %.3f, \"cpu_seconds\": %.3f}\n}\n",
               ok, limit, fail, wall, cpu_total);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = util::ThreadPool::hardware_threads();
  const char* json_path = nullptr;
  const char* cache_dir = nullptr;
  sat::Engine engine = sat::Engine::Dpll;
  for (int i = 1; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--threads") == 0 || std::strcmp(argv[i], "-j") == 0) &&
        i + 1 < argc) {
      const auto n = util::parse_int(argv[++i], 1, 1 << 16);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --threads expects a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      threads = static_cast<unsigned>(*n);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      const auto e = sat::engine_from_name(argv[++i]);
      if (!e.has_value()) {
        std::fprintf(stderr, "error: unknown --engine: '%s' (expected dpll|cdcl)\n", argv[i]);
        return 2;
      }
      engine = *e;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--engine dpll|cdcl] [--json PATH]"
                   " [--cache-dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }

  const auto& benches = benchmarks::table1_benchmarks();
  std::vector<BenchResult> results(benches.size());

  std::unique_ptr<svc::Cache> cache;
  if (cache_dir != nullptr) {
    svc::CacheOptions copts;
    copts.dir = cache_dir;
    cache = std::make_unique<svc::Cache>(copts);
  }

  util::Timer total;
  util::ThreadPool pool(threads);
  pool.parallel_for(benches.size(), [&](std::size_t i) {
    results[i] = run_benchmark(benches[i], engine, cache.get());
  });
  const double wall = total.seconds();

  std::printf("Table 1 — modular partitioning vs direct SAT vs monolithic insertion\n");
  std::printf("(measured on this machine; 'paper' rows show the published SPARC-2 values)\n\n");
  std::printf("%-15s|%6s %5s |%7s %5s %5s %8s |%7s %5s %5s %8s |%5s %5s %8s\n", "STG",
              "states", "sigs", "states", "sigs", "area", "cpu", "states", "sigs", "area",
              "cpu", "sigs", "area", "cpu");
  std::printf("%-15s|%13s |%28s |%28s |%20s\n", "", "specification",
              "our method (decomposition)", "Vanbekbergen (no decomp.)", "Lavagno-style");
  std::printf("----------------+--------------+-----------------------------+------------------"
              "-----------+---------------------\n");

  double sum_ratio_v = 0.0;
  int count_v = 0;
  double sum_ratio_l = 0.0;
  int count_l = 0;
  double speedup_v = 0.0;
  int speedup_v_n = 0;
  double speedup_l = 0.0;
  int speedup_l_n = 0;
  double cpu_total = 0.0;

  for (const BenchResult& r : results) {
    print_row(r.ours);
    print_row(r.paper);
    const JsonRow& m = r.json[0];
    const JsonRow& v = r.json[1];
    const JsonRow& l = r.json[2];
    cpu_total += m.seconds + v.seconds + l.seconds;
    if (m.ok() && v.ok() && v.literals > 0) {
      sum_ratio_v += static_cast<double>(m.literals) / v.literals;
      ++count_v;
      if (m.seconds > 0) {
        speedup_v += v.seconds / m.seconds;
        ++speedup_v_n;
      }
    }
    if (m.ok() && l.ok() && l.literals > 0) {
      sum_ratio_l += static_cast<double>(m.literals) / l.literals;
      ++count_l;
      if (m.seconds > 0) {
        speedup_l += l.seconds / m.seconds;
        ++speedup_l_n;
      }
    }
  }

  std::printf("\nSummary (instances where both methods finished):\n");
  if (count_v > 0) {
    std::printf("  area, modular / direct     : %.2fx on average over %d instances"
                "  (paper: 0.88x, i.e. 12%% smaller)\n",
                sum_ratio_v / count_v, count_v);
  }
  if (count_l > 0) {
    std::printf("  area, modular / monolithic : %.2fx on average over %d instances"
                "  (paper: 0.91x, i.e. 9%% smaller)\n",
                sum_ratio_l / count_l, count_l);
  }
  if (speedup_v_n > 0) {
    std::printf("  time, direct / modular     : %.1fx on average over %d instances"
                " (excludes the LIMIT rows where the ratio is unbounded)\n",
                speedup_v / speedup_v_n, speedup_v_n);
  }
  if (speedup_l_n > 0) {
    std::printf("  time, monolithic / modular : %.1fx on average over %d instances\n",
                speedup_l / speedup_l_n, speedup_l_n);
  }
  std::printf("\nTotal: %.2fs wall on %u thread(s) (%.2fs of per-method cpu time)\n", wall,
              pool.num_threads(), cpu_total);
  if (cache != nullptr) {
    const svc::CacheStats cs = cache->stats();
    const std::size_t hits = cs.mem_hits + cs.disk_hits;
    const std::size_t lookups = hits + cs.misses;
    std::printf("Cache: %zu/%zu hits (%.0f%%), %zu misses, %zu corrupt, dir=%s\n", hits,
                lookups, lookups == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / lookups,
                cs.misses, cs.corrupt, cache_dir);
  }
  std::printf("\nSee EXPERIMENTS.md for the row-by-row discussion.\n");

  if (json_path != nullptr) {
    write_json(json_path, benches, results, engine, pool.num_threads(), wall, cpu_total);
    std::printf("Machine-readable report written to %s\n", json_path);
  }
  return 0;
}
