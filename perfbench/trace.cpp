#include <cstdio>
#include <string_view>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "sat/solver.hpp"
#include "svc/json.hpp"
#include "util/common.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kOutcomeLimit = static_cast<std::int64_t>(sat::Outcome::Limit);

/// Fold the library's own spans recorded during one operation into the
/// pass totals.  Only spans whose layer the benchmark does not time itself
/// are folded, so nothing is counted twice.
/// `conflict_cap` (<0 = none) is the backtrack cap of the operation's
/// solves: a Limit outcome below it was stopped by a clock or interrupt.
void fold_library_spans(std::int64_t conflict_cap, LayerTotals& t) {
  const svc::Json events = svc::Json::parse(obs::chrome_trace_json());
  for (const svc::Json& e : events.items()) {
    if (e.get_string("ph", "") != "X") continue;
    const std::string name = e.get_string("name", "");
    const double dur_s = e.get_double("dur", 0.0) * 1e-6;
    const svc::Json* args = e.find("args");
    auto arg = [&](const char* key) {
      return args == nullptr ? 0.0 : static_cast<double>(args->get_int(key, 0));
    };
    if (name == "sat.solve") {
      t["sat.solve_s"] += dur_s;
      t["sat.formulas"] += 1;
      t["encoding.vars"] += arg("vars");
      t["encoding.clauses"] += arg("clauses");
      t["sat.decisions"] += arg("decisions");
      t["sat.propagations"] += arg("propagations");
      t["sat.conflicts"] += arg("conflicts");
      if (arg("outcome") == kOutcomeLimit) {
        t["sat.solve_limits"] += 1;
        if (conflict_cap >= 0 && arg("conflicts") <= static_cast<double>(conflict_cap)) {
          t["sat.solve_limits_before_cap"] += 1;
        }
      }
    } else if (name == "synth.module") {
      t["core.modules_computed"] += 1;
      t["core.module_span_s"] += dur_s;
    } else if (name == "sg.analyze_csc") {
      t["sg.analyze_csc_s"] += dur_s;
      t["sg.analyze_csc_calls"] += 1;
    } else if (name == "petri.reachability") {
      t["petri.reachability_s"] += dur_s;
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), t0_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

std::size_t Tracer::open(const char* name) {
  const std::int64_t parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back({name, input_, method_, parent, now(), 0.0});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  Span& s = spans_[id];
  s.dur = now() - s.start;
  stack_.pop_back();
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_dur += s.dur;
  if (s.parent >= 0 || std::string_view(s.name) != "op") {
    totals_[std::string(s.name) + "_s"] += s.dur;
  }
}

void Tracer::begin_op(const Op& op) {
  input_ = op.input;
  method_ = op.method;
  obs::reset();
  obs::set_enabled(true);
  open("op");
}

Tracer::OpTimes Tracer::end_op(std::int64_t conflict_cap) {
  const std::size_t id = stack_.back();
  close(id);
  obs::set_enabled(false);
  OpTimes times;
  times.seconds = spans_[id].dur;
  times.attributed = spans_[id].child_dur;
  fold_library_spans(conflict_cap, times.library);
  obs::reset();
  for (const auto& [metric, v] : times.library) totals_[metric] += v;
  return times;
}

void Tracer::set_input(std::string input, std::string method) {
  input_ = std::move(input);
  method_ = std::move(method);
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw util::Error("cannot open " + path + " for writing");
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"%s\",\"pid\":0,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"workload\":\"%s\",\"input\":\"%s\",\"method\":\"%s\"}}%s\n",
                 s.name, s.start * 1e6, s.dur * 1e6, i, static_cast<long long>(s.parent),
                 json_escape(workload_).c_str(), json_escape(s.input).c_str(),
                 json_escape(s.method).c_str(), i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) throw util::Error("cannot write " + path);
}

}  // namespace perfbench
