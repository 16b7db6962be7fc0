#include "stg/builder.hpp"

#include <sstream>

#include "stg/parser.hpp"

namespace mps::stg {

// The builder lowers to .g text and reuses the parser, so that builder
// programs and .g files have exactly the same token semantics.

Builder::Builder(std::string name) : name_(std::move(name)) {}

Builder& Builder::inputs(std::initializer_list<const char*> names) {
  for (const char* n : names) signals_.emplace_back(n, SignalKind::Input);
  return *this;
}
Builder& Builder::outputs(std::initializer_list<const char*> names) {
  for (const char* n : names) signals_.emplace_back(n, SignalKind::Output);
  return *this;
}
Builder& Builder::dummies(std::initializer_list<const char*> names) {
  for (const char* n : names) signals_.emplace_back(n, SignalKind::Dummy);
  return *this;
}
Builder& Builder::input(const std::string& name) {
  signals_.emplace_back(name, SignalKind::Input);
  return *this;
}
Builder& Builder::output(const std::string& name) {
  signals_.emplace_back(name, SignalKind::Output);
  return *this;
}
Builder& Builder::internal(const std::string& name) {
  signals_.emplace_back(name, SignalKind::Internal);
  return *this;
}
Builder& Builder::dummy(const std::string& name) {
  signals_.emplace_back(name, SignalKind::Dummy);
  return *this;
}

Builder& Builder::arc(const std::string& src, const std::string& dst) {
  arcs_.push_back({src, dst});
  return *this;
}

Builder& Builder::token(const std::string& src, const std::string& dst) {
  tokens_.push_back({src, dst, 1});
  return *this;
}

Builder& Builder::token_on(const std::string& place, int count) {
  tokens_.push_back({place, "", count});
  return *this;
}

Builder& Builder::initial(const std::string& signal, bool value) {
  initials_.emplace_back(signal, value);
  return *this;
}

Stg Builder::build() {
  std::ostringstream g;
  g << ".model " << name_ << '\n';
  const char* directives[] = {".inputs", ".outputs", ".internal", ".dummy"};
  for (int kind = 0; kind < 4; ++kind) {
    bool any = false;
    for (const auto& [name, k] : signals_) {
      if (static_cast<int>(k) == kind) {
        if (!any) g << directives[kind];
        g << ' ' << name;
        any = true;
      }
    }
    if (any) g << '\n';
  }
  g << ".graph\n";
  for (const auto& a : arcs_) g << a.src << ' ' << a.dst << '\n';
  g << ".marking {";
  for (const auto& t : tokens_) {
    if (t.dst.empty()) {
      g << ' ' << t.src;
      if (t.count != 1) g << '=' << t.count;
    } else {
      g << " <" << t.src << ',' << t.dst << '>';
    }
  }
  g << " }\n";
  if (!initials_.empty()) {
    g << ".initial";
    for (const auto& [sig, val] : initials_) g << ' ' << sig << '=' << (val ? '1' : '0');
    g << '\n';
  }
  g << ".end\n";
  return parse_g(g.str());
}

}  // namespace mps::stg
