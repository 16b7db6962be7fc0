#include "sg/csc.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::sg {

int ceil_log2(std::size_t n) {
  MPS_ASSERT(n >= 1);
  int bits = 0;
  std::size_t cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits;
}

namespace {

/// The behaviour signature compared between code-equal states, packed into
/// a fixed number of 64-bit words per state instead of a heap-allocated
/// string (DESIGN.md "Hot paths").  Layout: the excitation part first
/// (2 bits for a focus signal, else one bit per signal of the
/// excited-non-input set), then 2 bits per inserted state signal encoding
/// {Up, Down, stable} — the same three-way distinction the old character
/// key made (Zero and One both rendered as '.').  Packing is injective per
/// component, so key equality coincides with string equality.
class SignatureKeys {
 public:
  SignatureKeys(const StateGraph& g, const Assignments* assigns, const CscOptions& opts)
      : g_(g), assigns_(assigns), focus_(opts.focus_signal) {
    const std::size_t excite_bits = focus_ != stg::kNoSignal ? 2 : g.num_signals();
    assign_base_ = excite_bits;
    const std::size_t total_bits =
        excite_bits + 2 * (assigns != nullptr ? assigns->num_signals() : 0);
    words_ = std::max<std::size_t>(1, (total_bits + 63) / 64);
  }

  std::size_t words_per_key() const { return words_; }

  /// Write the signature of state `s` into `out[0 .. words_per_key())`.
  void fill(StateId s, std::uint64_t* out) const {
    std::fill(out, out + words_, 0);
    if (focus_ != stg::kNoSignal) {
      if (g_.excited_dir(s, focus_, true)) out[0] |= 1u;
      if (g_.excited_dir(s, focus_, false)) out[0] |= 2u;
    } else {
      // The excited non-input signals of s, written straight into the key
      // words: set the bit of every non-silent edge label, then mask the
      // input columns.
      for (const Edge& e : g_.out(s)) {
        if (!e.is_silent()) out[e.sig >> 6] |= std::uint64_t{1} << (e.sig & 63);
      }
      const auto inputs = g_.input_mask().words();
      for (std::size_t wi = 0; wi < inputs.size(); ++wi) out[wi] &= ~inputs[wi];
    }
    if (assigns_ != nullptr) {
      for (std::size_t k = 0; k < assigns_->num_signals(); ++k) {
        const V4 v = assigns_->value(k, s);
        const std::uint64_t code = v == V4::Up ? 1 : v == V4::Down ? 2 : 0;
        const std::size_t bit = assign_base_ + 2 * k;
        out[bit >> 6] |= code << (bit & 63);
      }
    }
  }

 private:
  const StateGraph& g_;
  const Assignments* assigns_;
  SignalId focus_;
  std::size_t assign_base_ = 0;
  std::size_t words_ = 1;
};

}  // namespace

CscResult analyze_csc(const StateGraph& g, const Assignments* assigns, const CscOptions& opts) {
  obs::Span span("sg.analyze_csc");
  CscResult result;

  const CodeClasses classes = code_classes(g);
  const SignatureKeys keys(g, assigns, opts);
  const std::size_t W = keys.words_per_key();
  std::vector<std::uint64_t> sigs;       // k packed signatures, reused per class
  std::vector<char> in_conflict;         // per class member, reused
  std::vector<std::uint32_t> distinct;   // member indices of distinct conflicted sigs

  for (std::size_t c = 0; c < classes.num_classes(); ++c) {
    const std::span<const StateId> states = classes.members(c);
    const std::size_t k = states.size();
    if (k < 2) continue;
    result.num_usc_pairs += k * (k - 1) / 2;
    result.max_class_size = std::max(result.max_class_size, k);

    sigs.assign(k * W, 0);
    for (std::size_t i = 0; i < k; ++i) keys.fill(states[i], sigs.data() + i * W);
    const auto same_sig = [&](std::size_t i, std::size_t j) {
      return std::equal(sigs.begin() + i * W, sigs.begin() + (i + 1) * W,
                        sigs.begin() + j * W);
    };

    // States in at least one unresolved conflict: the states that still
    // need distinguishing; the number of distinct signatures among them
    // lower-bounds the state signals this class requires.
    in_conflict.assign(k, 0);
    bool class_has_conflict = false;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        if (assigns != nullptr && assigns->separates_pair(states[i], states[j])) continue;
        if (same_sig(i, j)) {
          result.compatible_pairs.emplace_back(states[i], states[j]);
        } else {
          result.conflicts.emplace_back(states[i], states[j]);
          class_has_conflict = true;
          in_conflict[i] = in_conflict[j] = 1;
        }
      }
    }
    if (class_has_conflict) {
      distinct.clear();
      for (std::uint32_t i = 0; i < k; ++i) {
        if (!in_conflict[i]) continue;
        bool seen = false;
        for (const std::uint32_t rep : distinct) {
          if (same_sig(i, rep)) {
            seen = true;
            break;
          }
        }
        if (!seen) distinct.push_back(i);
      }
      result.lower_bound = std::max(result.lower_bound, ceil_log2(distinct.size()));
    }
  }

  // Pairs by (a, b), not by code.
  std::sort(result.conflicts.begin(), result.conflicts.end());
  std::sort(result.compatible_pairs.begin(), result.compatible_pairs.end());
  span.arg("states", static_cast<std::int64_t>(g.num_states()));
  span.arg("conflicts", static_cast<std::int64_t>(result.conflicts.size()));
  span.arg("usc_pairs", static_cast<std::int64_t>(result.num_usc_pairs));
  return result;
}

}  // namespace mps::sg
