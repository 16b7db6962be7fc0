// Shared small utilities: error types, timing, deterministic RNG.
//
// Everything in the library throws mps::util::Error (or a subclass) on
// contract violations that depend on user input (malformed .g files,
// inconsistent STGs, resource limits).  Internal invariants use MPS_ASSERT,
// which is active in all build types: this is an EDA tool, a silently wrong
// circuit is worse than an abort.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mps::util {

/// Base class for all errors raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed textual input (.g / PLA / DIMACS parsing).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line = 0)
      : Error(line > 0 ? "parse error at line " + std::to_string(line) + ": " + what
                       : "parse error: " + what),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_ = 0;
};

/// Input that parses but violates a semantic requirement
/// (e.g. an STG whose state graph has no consistent binary coding).
class SemanticsError : public Error {
 public:
  using Error::Error;
};

/// A configured resource limit (states, clauses, backtracks, seconds) was hit.
class LimitError : public Error {
 public:
  using Error::Error;
};

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);

#define MPS_ASSERT(expr) \
  ((expr) ? (void)0 : ::mps::util::assert_fail(#expr, __FILE__, __LINE__))

/// Wall-clock stopwatch (steady clock).
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Absolute steady-clock deadline; default-constructed = never expires.
/// The one budget type from the wire to the solver: socket I/O, connect,
/// per-request synthesis budgets and SAT solves all take it.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// The largest budget after() arms: half the clock's range (~146
  /// years), so now() + seconds cannot overflow.
  static constexpr double max_seconds() {
    return std::chrono::duration<double>(Clock::duration::max()).count() / 2;
  }

  Deadline() = default;
  /// A deadline `seconds` from now; <=0, NaN and budgets past max_seconds()
  /// mean "never".
  static Deadline after(double seconds) {
    if (!(seconds > 0 && seconds <= max_seconds())) return {};
    return at(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)));
  }
  /// A deadline at `t` (tests use it for an already-expired deadline).
  static Deadline at(Clock::time_point t) {
    Deadline d;
    d.armed_ = true;
    d.at_ = t;
    return d;
  }

  bool never() const { return !armed_; }
  /// Reads the clock only when armed.
  bool expired() const { return armed_ && Clock::now() >= at_; }
  /// Milliseconds until expiry for poll(): -1 when never, >=0 otherwise
  /// (0 when already expired).
  int poll_ms() const {
    if (!armed_) return -1;
    const auto left = at_ - Clock::now();
    if (left <= Clock::duration::zero()) return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
    // Round up so a 0.4 ms remainder polls 1 ms instead of busy-spinning at 0.
    return static_cast<int>(ms) + 1;
  }
  /// The earlier of this deadline and `other`.
  Deadline min(const Deadline& other) const {
    if (never()) return other;
    if (other.never()) return *this;
    return at_ <= other.at_ ? *this : other;
  }

 private:
  bool armed_ = false;
  Clock::time_point at_{};
};

/// Deterministic 64-bit PRNG (xoshiro256**): identical streams on every
/// platform, unlike std::mt19937_64 + distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    for (auto& word : s_) {
      seed += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw.
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t s_[4];
};

/// 64-bit FNV-1a, used by the hash tables in sg:: and bdd::.
inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace mps::util
