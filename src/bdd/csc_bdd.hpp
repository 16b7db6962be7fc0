// BDD-based CSC machinery — the paper's reference [19] extension ("A
// Divide and Conquer Approach for Asynchronous Interface Synthesis",
// IHLS'94): characteristic-function formulations of the CSC check and a
// BDD cross-check of extracted covers.
#pragma once

#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "logic/minimize.hpp"
#include "sat/cnf.hpp"
#include "sg/state_graph.hpp"

namespace mps::bdd {

// The enumeration-backed reachable_chi / csc_holds helpers that used to
// live here (building characteristic functions *from* an explicit state
// graph) are gone: SymbolicStg (symbolic.hpp) computes both directly from
// the STG without ever enumerating states.

/// Exact equivalence of a minimized cover against its ON/OFF specification
/// modulo don't-cares:  ON ⊆ cover ⊆ ¬OFF.  A test-side oracle only.
bool cover_matches_spec(Manager& mgr, const logic::SopSpec& spec, const logic::Cover& cover);

/// BDD-based constraint satisfaction (the core of ref. [19]'s divide and
/// conquer): conjoin the clauses of a CNF into a characteristic function
/// and extract a model.  Returns nullopt if the formula is unsatisfiable;
/// throws util::LimitError if the intermediate BDD exceeds `max_nodes`
/// (callers fall back to the DPLL solver).
std::optional<std::vector<bool>> solve_cnf_bdd(const sat::Cnf& cnf,
                                               std::size_t max_nodes = 2'000'000);

}  // namespace mps::bdd
