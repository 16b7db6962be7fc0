// A fluent builder for constructing STGs in C++ (used by tests, the
// benchmark suite and the random-STG generators).  Mirrors .g syntax:
//
//   auto stg = Builder("xyz")
//                  .inputs({"a"})
//                  .outputs({"x"})
//                  .arc("a+", "x+").arc("x+", "a-")
//                  .arc("a-", "x-").arc("x-", "a+")
//                  .token("x-", "a+")
//                  .build();
//
// Transition tokens use the same grammar as the parser ("a+", "b-/1", bare
// dummy names); unknown bare identifiers denote explicit places.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "stg/stg.hpp"

namespace mps::stg {

class Builder {
 public:
  explicit Builder(std::string name);

  Builder& inputs(std::initializer_list<const char*> names);
  Builder& outputs(std::initializer_list<const char*> names);
  Builder& dummies(std::initializer_list<const char*> names);

  Builder& input(const std::string& name);
  Builder& output(const std::string& name);
  Builder& internal(const std::string& name);
  Builder& dummy(const std::string& name);

  /// Add an arc src -> dst (either end may be a transition or an explicit
  /// place; transition->transition arcs create an implicit place).
  Builder& arc(const std::string& src, const std::string& dst);

  /// Chain arcs: path("a+","b+","c-") == arc("a+","b+").arc("b+","c-").
  template <typename... Rest>
  Builder& path(const std::string& a, const std::string& b, Rest&&... rest) {
    arc(a, b);
    if constexpr (sizeof...(rest) > 0) return path(b, std::forward<Rest>(rest)...);
    return *this;
  }

  /// Put an initial token on the implicit place of arc src->dst.
  Builder& token(const std::string& src, const std::string& dst);
  /// Put `count` initial tokens on explicit place `name`.
  Builder& token_on(const std::string& place, int count = 1);

  /// Declare the initial value of a signal (needed only when inference
  /// from the behaviour is ambiguous).
  Builder& initial(const std::string& signal, bool value);

  /// Finalize; validates the STG.  The builder must not be reused.
  Stg build();

 private:
  // Arcs are recorded as token strings and materialized in build() so that
  // signals may be declared after their first use.
  struct Arc {
    std::string src, dst;
  };
  struct TokenReq {
    std::string src, dst;  // dst empty => explicit place `src` with `count`
    int count;
  };

  std::string name_;
  std::vector<std::pair<std::string, SignalKind>> signals_;
  std::vector<Arc> arcs_;
  std::vector<TokenReq> tokens_;
  std::vector<std::pair<std::string, bool>> initials_;
};

}  // namespace mps::stg
