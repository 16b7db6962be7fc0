// svc::Artifact — the serialized synthesis result the service caches and
// ships over the wire, plus the one place that runs a synthesis request.
//
// An artifact carries everything a client needs to reproduce mps_synth's
// outputs byte-for-byte without the state graph: quality numbers, the
// final-graph signal table, per-output covers (positional cube strings),
// the structural Verilog, the verify verdict, and the SolverTotals behind
// bench/table1's schema-3 stats columns.
//
// Identity contract: run_synthesis is the one method dispatch.  The daemon,
// examples/mps_synth and bench/table1 all call it, with option structs
// built by default_request_options(), so a daemon answer and a local
// mps_synth run of the same .g text cannot drift apart (tests/
// check_protocol.cmake byte-compares the two).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "core/synthesis.hpp"
#include "logic/cover.hpp"
#include "sat/solver.hpp"
#include "stg/stg.hpp"
#include "svc/json.hpp"
#include "verify/verify.hpp"

namespace mps::svc {

/// Everything that determines a synthesis request's result.
/// default_request_options() sets the limits mps_synth and the daemon run
/// with; bench/table1 overrides the limits with its own.
struct RequestOptions {
  std::string method = "modular";  ///< modular | direct | lavagno
  /// Ignored; removed with the next benchmark change.
  unsigned threads = 1;
  /// Per-request wall-clock budget; <=0 = none.  Mapped onto the method's
  /// sat::SolveOptions::deadline (modular.sat.solve, direct.solve,
  /// lavagno.solve).  Part of the fingerprint: a deadline that fires
  /// changes results.
  double deadline_s = 0.0;
  core::SynthesisOptions modular;
  baseline::DirectOptions direct;
  baseline::LavagnoOptions lavagno;
};

/// RequestOptions with the per-method limits examples/mps_synth applies
/// (direct: 5M backtracks / 120 s; lavagno: 300 s overall).
RequestOptions default_request_options(const std::string& method);

/// Select the SAT engine for every method's solve options.  The engine is
/// result-affecting and lives inside each method's sat::SolveOptions; this
/// helper keeps the three in sync so a request's fingerprint always matches
/// the options the active method actually runs with.
void set_engine(RequestOptions* opts, sat::Engine engine);

/// Canonical text encoding of every result-affecting RequestOptions field
/// (method, deadline budget, and the active method's option struct).
std::string request_fingerprint(const RequestOptions& opts);

/// The cache key: SHA-256 over the canonical .g text (stg::write_g_canonical),
/// the request fingerprint, and the cache schema version — so a schema bump
/// invalidates old entries by never colliding with their keys.
std::string request_digest(const stg::Stg& spec, const RequestOptions& opts);

struct Artifact {
  /// Bump on any serialization change; deserialize() rejects other versions
  /// (and request_digest folds kVersion into the key, so stale disk entries
  /// are simply never looked up).  v2: solver object gained restarts/learned.
  static constexpr int kVersion = 2;

  std::string name;    ///< spec (STG) name
  std::string method;
  bool success = false;
  bool hit_limit = false;  ///< a budget tripped (core::FlowResult::hit_limit)
  std::string failure_reason;

  std::size_t initial_states = 0, initial_signals = 0;
  std::size_t final_states = 0, final_signals = 0;
  std::size_t literals = 0;

  /// Final-graph signal table, in signal-id order (the variable order of
  /// every cover cube, and the name list mps_synth passes to write_pla).
  std::vector<std::string> signal_names;
  /// Names of the state signals the synthesis inserted (ids >= initial_signals).
  std::vector<std::string> inserted_signals;
  /// One entry per non-input signal: output name + positional cube strings
  /// ("10-1", variables = signal_names).
  std::vector<std::pair<std::string, std::vector<std::string>>> covers;

  std::string verilog;  ///< netlist::write_verilog text ("" when none)
  std::size_t gates = 0, transistors = 0;

  bool verify_ok = false;
  std::vector<std::string> verify_issues;

  sat::SolverTotals solver;
  double seconds = 0.0;  ///< wall time of the original (cold) synthesis

  Json to_json() const;
  std::string serialize() const { return to_json().dump(); }
  /// nullopt on parse failure, version mismatch, a negative count, or a
  /// cube that is not one 0/1/- character per signal name — cache layers
  /// treat each as a miss, never an error, and rebuild_covers() can trust
  /// what it gets.
  static std::optional<Artifact> deserialize(const std::string& text);

  /// Rebuild the logic::Cover list (for write_pla / verification replay).
  std::vector<std::pair<std::string, logic::Cover>> rebuild_covers() const;
};

/// Execute one request end to end: state graph, the chosen method, one
/// verify_synthesis run (netlist + SI check), Verilog of its netlist.
/// Never throws for synthesis-level failures (success=false +
/// failure_reason instead); propagates only programming errors and spec
/// errors from building the state graph.  The single execution path shared
/// by the daemon, mps_synth, bench/table1 --cache-dir and the identity tests.
///
/// When `report` is non-null and the synthesis succeeded, the verifier's
/// report lands in it: mps_synth --check-circuit prints from it.
Artifact run_synthesis(const stg::Stg& spec, const RequestOptions& opts,
                       verify::Report* report = nullptr);

}  // namespace mps::svc
