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

struct Row {
  std::string name;
  std::string init_states, init_sigs;
  std::string m_states, m_sigs, m_area, m_cpu;
  std::string v_states, v_sigs, v_area, v_cpu;
  std::string l_sigs, l_area, l_cpu;
};

void print_row(const Row& r) {
  std::printf("%-15s|%6s %5s |%7s %5s %5s %8s |%7s %5s %5s %8s |%5s %5s %8s\n",
              r.name.c_str(), r.init_states.c_str(), r.init_sigs.c_str(),
              r.m_states.c_str(), r.m_sigs.c_str(), r.m_area.c_str(), r.m_cpu.c_str(),
              r.v_states.c_str(), r.v_sigs.c_str(), r.v_area.c_str(), r.v_cpu.c_str(),
              r.l_sigs.c_str(), r.l_area.c_str(), r.l_cpu.c_str());
}

/// One (benchmark, method) record of the machine-readable report.
struct JsonRow {
  const char* method;  // "modular" | "direct" | "lavagno"
  std::size_t states = 0, signals = 0, literals = 0;
  std::size_t gates = 0, transistors = 0;  // complex-gate netlist (0 on failure)
  const char* outcome = "ok";  // "ok" | "LIMIT" | "FAIL"
  sat::SolverTotals solver;    // search effort behind this row (schema v3/v4)
  double seconds = 0.0;
};

/// Everything one benchmark contributes: its two printed rows plus the raw
/// numbers the summary needs.  Filled concurrently, consumed in order.
struct BenchResult {
  Row ours;
  Row paper;
  bool m_ok = false, v_ok = false, l_ok = false;
  std::size_t m_area = 0, v_area = 0, l_area = 0;
  double m_secs = 0.0, v_secs = 0.0, l_secs = 0.0;
  JsonRow json[3];
};

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

  const svc::Artifact m = run_method(spec, "modular", engine, cache);
  const svc::Artifact v = run_method(spec, "direct", engine, cache);
  const svc::Artifact l = run_method(spec, "lavagno", engine, cache);

  Row& ours = out.ours;
  ours.name = b.name;
  ours.init_states = num(m.initial_states);
  ours.init_sigs = num(m.initial_signals);
  if (m.success) {
    ours.m_states = num(m.final_states);
    ours.m_sigs = num(m.final_signals);
    ours.m_area = num(m.literals);
    ours.m_cpu = secs(m.seconds);
  } else {
    ours.m_states = ours.m_sigs = ours.m_area = "-";
    ours.m_cpu = "FAIL";
  }
  if (v.success) {
    ours.v_states = num(v.final_states);
    ours.v_sigs = num(v.final_signals);
    ours.v_area = num(v.literals);
    ours.v_cpu = secs(v.seconds);
  } else {
    ours.v_states = ours.v_sigs = ours.v_area = "-";
    ours.v_cpu = v.hit_limit ? "LIMIT" : "FAIL";
  }
  if (l.success) {
    ours.l_sigs = num(l.final_signals);
    ours.l_area = num(l.literals);
    ours.l_cpu = secs(l.seconds);
  } else {
    ours.l_sigs = ours.l_area = "-";
    ours.l_cpu = l.hit_limit ? "LIMIT" : "FAIL";
  }

  Row& paper = out.paper;
  paper.name = "  (paper)";
  paper.init_states = num(b.paper.initial_states);
  paper.init_sigs = num(b.paper.initial_signals);
  paper.m_states = num(b.paper.m_final_states);
  paper.m_sigs = num(b.paper.m_final_signals);
  paper.m_area = num(b.paper.m_area);
  paper.m_cpu = secs(b.paper.m_cpu_s);
  if (b.paper.v_limit) {
    paper.v_states = paper.v_sigs = paper.v_area = "-";
    paper.v_cpu = "LIMIT";
  } else {
    paper.v_states = num(b.paper.v_final_states);
    paper.v_sigs = num(b.paper.v_final_signals);
    paper.v_area = num(b.paper.v_area);
    paper.v_cpu = secs(b.paper.v_cpu_s);
  }
  if (b.paper.l_note != nullptr) {
    paper.l_sigs = paper.l_area = "-";
    paper.l_cpu = "ERROR";
  } else {
    paper.l_sigs = num(b.paper.l_final_signals);
    paper.l_area = num(b.paper.l_area);
    paper.l_cpu = secs(b.paper.l_cpu_s);
  }

  out.m_ok = m.success;
  out.v_ok = v.success;
  out.l_ok = l.success;
  out.m_area = m.literals;
  out.v_area = v.literals;
  out.l_area = l.literals;
  out.m_secs = m.seconds;
  out.v_secs = v.seconds;
  out.l_secs = l.seconds;

  out.json[0] = {"modular", m.final_states, m.final_signals, m.literals,
                 m.gates, m.transistors, m.success ? "ok" : "FAIL", m.solver, m.seconds};
  out.json[1] = {"direct", v.final_states, v.final_signals, v.literals,
                 v.gates, v.transistors,
                 v.success ? "ok" : (v.hit_limit ? "LIMIT" : "FAIL"), v.solver, v.seconds};
  out.json[2] = {"lavagno", l.final_states, l.final_signals, l.literals,
                 l.gates, l.transistors,
                 l.success ? "ok" : (l.hit_limit ? "LIMIT" : "FAIL"), l.solver, l.seconds};
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
      if (std::strcmp(row.outcome, "ok") == 0) ++ok;
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
    cpu_total += r.m_secs + r.v_secs + r.l_secs;
    if (r.m_ok && r.v_ok && r.v_area > 0) {
      sum_ratio_v += static_cast<double>(r.m_area) / r.v_area;
      ++count_v;
      if (r.m_secs > 0) {
        speedup_v += r.v_secs / r.m_secs;
        ++speedup_v_n;
      }
    }
    if (r.m_ok && r.l_ok && r.l_area > 0) {
      sum_ratio_l += static_cast<double>(r.m_area) / r.l_area;
      ++count_l;
      if (r.m_secs > 0) {
        speedup_l += r.l_secs / r.m_secs;
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
