// Shared declarations of the synthesis benchmark (see README.md).
//
// A workload is a list of operations — one spec through one method or
// engine — run back to back in a closed loop.  Each operation has an
// untraced form (the public entry point a user calls, timed as a whole)
// and a traced form that calls each layer's public functions separately,
// inside benchmark spans, with the library's own obs:: spans enabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace perfbench {

using namespace mps;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;         ///< orders the inputs of every pass
  std::uint64_t corpus_seed = 1;  ///< draws encode-gen's random specs
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;           ///< modular worker threads: one per hardware thread, as mps_synth
  std::string root = ".";         ///< checkout root (reference JSON files)
  std::string trace_out;          ///< benchmark span file; "" = none
};

/// Quality a reference run recorded for one (spec, method) cell.
struct Expected {
  std::size_t states = 0, signals = 0, literals = 0, gates = 0, transistors = 0;
  std::int64_t decisions = 0, propagations = 0, conflicts = 0, restarts = 0, learned = 0;
};

/// One operation of a workload.
struct Op {
  std::string input;   ///< spec name
  std::string method;  ///< modular | direct | lavagno | explicit | symbolic
  stg::Stg spec;
  sg::StateGraph graph;  ///< prebuilt initial graph (encode-gen builds it in set-up)
  std::optional<Expected> expect;
};

/// What one execution of an operation produced.  Any entry in `problems`
/// makes the execution a failed operation.
struct Outcome {
  double seconds = 0.0;     ///< the timed call(s) only; checks are outside
  double attributed = 0.0;  ///< traced form: time inside the op's layer spans
  std::vector<std::string> problems;
  std::size_t signals = 0;    ///< spec signals (manifest)
  double initial_states = 0;  ///< spec state count (manifest)
  double final_states = 0;    ///< result graph states (verdict graph on csc-scale)
  std::size_t literals = 0, transistors = 0, inserted = 0;
  /// Everything that must repeat exactly between passes and between the
  /// untraced and traced forms: quality counts, covers, verdicts, effort.
  std::string signature;
};

/// Per-layer totals, keyed by metric name.
using LayerTotals = std::map<std::string, double>;

/// Benchmark spans, kept in memory and written when the run ends.  Spans
/// nest through a stack: a span's parent is the span open when it began.
/// Every span except an operation's root adds its duration to the pass
/// totals as "<name>_s".
class Tracer {
 public:
  explicit Tracer(std::string workload);

  /// Open the root span of one operation and reset + enable obs:: so the
  /// library's own spans inside the operation are captured.
  void begin_op(const Op& op);
  struct OpTimes {
    double seconds = 0.0;     ///< root span duration
    double attributed = 0.0;  ///< covered by its direct child spans
    LayerTotals library;      ///< the library's spans, folded (see trace.cpp)
  };
  /// Close the root span, stop obs:: and fold the library's spans into
  /// both the returned op-local totals and the pass totals.
  /// `conflict_cap` (<0 = none) is the backtrack cap of the operation's SAT
  /// solves; Limit outcomes below it count as "sat.solve_limits_before_cap".
  OpTimes end_op(std::int64_t conflict_cap = -1);
  /// Label spans opened outside an operation (set-up, replays).
  void set_input(std::string input, std::string method);

  template <class F>
  auto time(const char* name, F&& f) {
    struct Closer {
      Tracer* t;
      std::size_t id;
      ~Closer() { t->close(id); }
    } closer{this, open(name)};
    return f();
  }

  void add(const std::string& metric, double v) { totals_[metric] += v; }
  /// The totals gathered since the last call.
  LayerTotals take_totals() { return std::exchange(totals_, {}); }

  /// Chrome trace-event JSON of every benchmark span (util::Error on I/O).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::string input, method;
    std::int64_t parent;  ///< -1 for a root
    double start, dur;
    double child_dur = 0.0;
  };
  std::size_t open(const char* name);
  void close(std::size_t id);
  double now() const;

  std::string workload_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::string input_, method_;
  LayerTotals totals_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build, generate and filter the inputs.  `tracer` (may be null) times
  /// layer calls made during set-up.
  virtual std::vector<Op> setup(Tracer* tracer) const = 0;
  virtual Outcome run(const Op& op) const = 0;
  virtual Outcome traced(const Op& op, Tracer& tracer) const = 0;
  /// Checks across the operations of one pass (outcomes index-aligned with
  /// `ops`); appends to the outcomes' problems.
  virtual void cross_check(const std::vector<Op>& /*ops*/,
                           std::vector<Outcome>& /*outcomes*/) const {}
  /// True when an operation is svc::run_synthesis, so the traced run can
  /// report the service layer's own time.
  virtual bool via_service() const { return false; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const Config& cfg);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
