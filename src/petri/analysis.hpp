// Structural and behavioural analyses of Petri nets:
//   * structural class predicates (marked graph, free choice) — these are the
//     classes the paper contrasts its generality against (§1: methods limited
//     to marked graphs or safe free-choice nets),
//   * bounded reachability (marking enumeration with limits),
//   * liveness and safety checks on the reachable set.
#pragma once

#include <cstddef>
#include <vector>

#include "petri/net.hpp"

namespace mps::petri {

/// A marked graph: every place has exactly one fan-in and one fan-out
/// transition — pure concurrency, no choice.
bool is_marked_graph(const Net& net);

/// A free-choice net: whenever a place feeds several transitions, it is the
/// *only* fan-in place of each of them (choice is never influenced by
/// concurrency).  Extended free choice (equal presets) is accepted too.
bool is_free_choice(const Net& net);

struct ReachabilityOptions {
  std::size_t max_markings = 1u << 20;  ///< abort above this many markings
  int max_tokens_per_place = 1;         ///< safety bound (1 = safe net)
};

struct ReachabilityResult {
  /// Markings reached; ids 0 .. num_markings - 1 in breadth-first
  /// discovery order, 0 being M0.
  std::size_t num_markings = 0;
  /// Edges: (from marking id, transition, to marking id), in discovery order.
  struct Edge {
    std::uint32_t from;
    TransId trans;
    std::uint32_t to;
  };
  std::vector<Edge> edges;
  bool safe = true;        ///< no reachable marking puts >1 token in a place
  bool complete = true;    ///< false if max_markings was hit
};

/// Exhaustive token-game exploration from `m0` (breadth-first, deterministic
/// order).  Throws util::SemanticsError if a place would hold more than 255
/// tokens; sets complete=false if max_markings is reached.
ReachabilityResult reachability(const Net& net, const Marking& m0,
                                const ReachabilityOptions& opts = {});

/// Live = every transition can fire from every reachable marking's future.
/// Checked on the (already computed) reachability graph: every transition
/// appears on an edge, and the graph restricted to states that can reach a
/// firing of each transition covers all states.  For the strongly connected
/// specifications used as benchmarks this degenerates to: the reachability
/// graph is one SCC and every transition occurs.
bool is_live(const Net& net, const ReachabilityResult& reach);

/// True if the reachability graph is a single strongly connected component.
bool is_strongly_connected(const ReachabilityResult& reach);

}  // namespace mps::petri
