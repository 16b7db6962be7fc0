// Pins the Table 1 quality columns (final states, final signals, area in
// literals, LIMIT outcomes) to the values of the reference run recorded in
// BENCH_table1.json.  The hot-path optimizations (clause arena, blocker
// literals, variable-order heap, single-pass code inference, packed CSC
// signatures — DESIGN.md "Hot paths") are all behavior-preserving by
// construction; this test is the executable form of that claim, in the
// spirit of Synthesis.ParallelMatchesSerialOnBenchmarkSuite.
//
// The modular method is pinned on all 23 benchmarks.  The direct
// (Vanbekbergen) and monolithic (Lavagno-style) baselines are pinned on the
// sub-second rows only: the large rows run minutes into their solver limits
// and belong to bench/table1, not the unit suite.  Seconds are never
// asserted — only search-path-determined quantities.
#include <gtest/gtest.h>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "sg/state_graph.hpp"
#include "svc/digest.hpp"

namespace {

using namespace mps;

struct ModularPin {
  const char* name;
  std::size_t init_states, init_signals;
  std::size_t states, signals, literals;
  const char* covers_sha256;  ///< of covers_text(): pins every cube, not just the count
};

// Quality columns of `bench/table1 --threads 1` (same values as the
// committed BENCH_table1.json), in table order.  The cover digests were
// recorded from the flow while minimize() still ran the exact pass and the
// scalar EXPAND, so they also pin that both changes left every cover as it
// was.
constexpr ModularPin kModularPins[] = {
    {"mr0", 304, 11, 1094, 17, 88,
     "4727cf89eed02595541a8774b13e663fd1e13619da01ce090b6c648ac52d6e18"},
    {"mr1", 194, 8, 554, 13, 42,
     "bc43afa81613ccce7fc7efc9a88ec49b635b82841e0255620bba430944b15148"},
    {"mmu0", 180, 8, 554, 13, 35,
     "3f97f47dcf7385f627d12ba2487a3e3c63653889abcfe74bbb617bff55eaa10b"},
    {"mmu1", 80, 8, 170, 11, 20,
     "c1ec1d09a9b0ec2c5dd1e4d7cea440cbede1f0e451c895a75aad723219b8261c"},
    {"sbuf-ram-write", 52, 10, 105, 14, 42,
     "799549b34a946b30c340349c06b83402b3cb0fdf84d6058a0be60c33b261ecd8"},
    {"vbe4a", 58, 6, 157, 10, 56,
     "c8c7655b5fe672325a5d2f2c1706b034ea959d0f4f2e5356ca231d1214cdf767"},
    {"nak-pa", 58, 9, 143, 15, 60,
     "3f5efd21f68ee09399e9d6d968fb1ba6ebe3e6891557b1f3eda6ddfdf6a1effa"},
    {"pe-rcv-ifc-fc", 35, 8, 85, 13, 52,
     "44b0a6b811d41bb00bd81e4a215107d3fa00105509c1be410985ab875c17d1b5"},
    {"ram-read-sbuf", 38, 10, 87, 14, 38,
     "0e8eb23459a3ab89875d8f3c5048bdbf1ed9d2b15a33a844eb59850db11b3bef"},
    {"alex-nonfc", 20, 6, 56, 8, 20,
     "2bf68adbd717b7ac2686f9eadac165dd21cbac3171b832e1f9c2e50e38d160b5"},
    {"sbuf-send-pkt2", 22, 6, 64, 10, 29,
     "6ce53c367b77fdae1f5dcfbd80ac734339deedf0400b9597a12814caf6c2ef7d"},
    {"sbuf-send-ctl", 20, 6, 40, 9, 19,
     "b40c9eb6fbf43584fd8adadc0d6be5cc815b0cf997b4c3ad08a87c5bb9f2a203"},
    {"atod", 20, 6, 38, 8, 13,
     "0bb6ef1c779a60812bf13de79455abab243367edf074ee5cb41015062ed88598"},
    {"pa", 18, 4, 38, 7, 28,
     "0a13bb06ac4dc12ad64f141293f2cf793df4bc4dba06ccdfce711ec5b7f1b9c6"},
    {"alloc-outbound", 18, 7, 28, 9, 21,
     "939ff9d74b0fe426f6c8eccf1d8ea8bc5efa5372bf3d79b36288c8631de140a0"},
    {"wrdata", 18, 4, 38, 7, 26,
     "bb802903bf0d3d6d2dc391b07ed50db607ae4174abac04d15932cd8619e54052"},
    {"fifo", 18, 4, 43, 8, 28,
     "82e196b813a6340bef746e1a8bb48311296ab9c5433ef19bbf08412275b95b5e"},
    {"sbuf-read-ctl", 16, 6, 23, 7, 12,
     "462fea35c741c95e3f4a0155f0be1a7908cd795ceb66070021403e96202991cc"},
    {"nouse", 10, 3, 20, 5, 10,
     "762996f2859b57ffb92a3895cd4c15a23f4e3bdf25b74c0b53e501d262627643"},
    {"vbe-ex2", 8, 2, 12, 3, 7,
     "6154f9a9b060d0d2ae3070597e77e2ef6f8a7209595a30db5282e6f308ced794"},
    {"nousc-ser", 8, 3, 10, 4, 12,
     "c5933cc6168c1b330e8b349637a308b2bfdcdaaac1753829ad4d5e230b9c310b"},
    {"sendr-done", 8, 3, 16, 5, 16,
     "bf406e4e2608a092d8184625dcb7478eb21d8731dddb94bffc645a72eb94b32b"},
    {"vbe-ex1", 4, 2, 6, 3, 7,
     "6154f9a9b060d0d2ae3070597e77e2ef6f8a7209595a30db5282e6f308ced794"},
};

TEST(Table1Pin, ModularQualityColumnsArePinned) {
  for (const ModularPin& pin : kModularPins) {
    const auto* b = benchmarks::find_benchmark(pin.name);
    ASSERT_NE(b, nullptr) << pin.name;
    const auto g = sg::StateGraph::from_stg(b->make());
    EXPECT_EQ(g.num_states(), pin.init_states) << pin.name;
    EXPECT_EQ(g.num_signals(), pin.init_signals) << pin.name;

    core::SynthesisOptions opts;
    opts.num_threads = 1;  // same per-row configuration as bench/table1
    const auto m = core::modular_synthesis(g, opts);
    ASSERT_TRUE(m.success) << pin.name;
    EXPECT_EQ(m.final_states, pin.states) << pin.name;
    EXPECT_EQ(m.final_signals, pin.signals) << pin.name;
    EXPECT_EQ(m.total_literals, pin.literals) << pin.name;
  }
}

/// One "signal:cube + cube" line per cover, in the flow's signal order.
std::string covers_text(const core::SynthesisResult& r) {
  std::string text;
  for (const auto& [name, cover] : r.covers) text += name + ":" + cover.to_string() + "\n";
  return text;
}

TEST(Table1Pin, ModularCoversArePinned) {
  for (const ModularPin& pin : kModularPins) {
    const auto* b = benchmarks::find_benchmark(pin.name);
    ASSERT_NE(b, nullptr) << pin.name;
    core::SynthesisOptions opts;
    opts.num_threads = 1;
    const auto m = core::modular_synthesis(sg::StateGraph::from_stg(b->make()), opts);
    ASSERT_TRUE(m.success) << pin.name;
    EXPECT_EQ(svc::sha256_hex(covers_text(m)), pin.covers_sha256) << pin.name << "\n"
                                                                  << covers_text(m);
  }
}

struct BaselinePin {
  const char* name;
  // direct (Vanbekbergen): final states/signals/literals
  std::size_t v_states, v_signals, v_literals;
  // monolithic (Lavagno-style): final signals/literals
  std::size_t l_signals, l_literals;
};

constexpr BaselinePin kBaselinePins[] = {
    {"mmu1", 156, 11, 29, 11, 23},
    {"sbuf-ram-write", 96, 13, 69, 13, 86},
    {"atod", 32, 8, 19, 8, 31},
    {"pa", 38, 7, 28, 7, 27},
    {"alloc-outbound", 22, 9, 23, 9, 23},
    {"wrdata", 38, 7, 26, 7, 31},
    {"fifo", 31, 7, 25, 8, 66},
    {"sbuf-read-ctl", 18, 7, 16, 7, 14},
    {"nouse", 20, 5, 10, 5, 10},
    {"vbe-ex2", 12, 3, 7, 3, 7},
    {"nousc-ser", 10, 4, 12, 7, 39},
    {"sendr-done", 13, 5, 11, 5, 18},
    {"vbe-ex1", 6, 3, 7, 3, 7},
};

TEST(Table1Pin, BaselineQualityColumnsArePinnedOnFastRows) {
  for (const BaselinePin& pin : kBaselinePins) {
    const auto* b = benchmarks::find_benchmark(pin.name);
    ASSERT_NE(b, nullptr) << pin.name;
    const auto g = sg::StateGraph::from_stg(b->make());

    baseline::DirectOptions vopts;  // bench/table1's configuration
    vopts.solve.max_backtracks = 5000000;
    vopts.solve.time_limit_s = 60.0;
    const auto v = baseline::direct_synthesis(g, vopts);
    ASSERT_TRUE(v.success) << pin.name;
    EXPECT_EQ(v.final_states, pin.v_states) << pin.name;
    EXPECT_EQ(v.final_signals, pin.v_signals) << pin.name;
    EXPECT_EQ(v.total_literals, pin.v_literals) << pin.name;

    baseline::LavagnoOptions lopts;
    lopts.solve.max_backtracks = 2000000;
    lopts.solve.time_limit_s = 20.0;
    lopts.time_limit_s = 300.0;
    const auto l = baseline::lavagno_synthesis(g, lopts);
    ASSERT_TRUE(l.success) << pin.name;
    EXPECT_EQ(l.final_signals, pin.l_signals) << pin.name;
    EXPECT_EQ(l.total_literals, pin.l_literals) << pin.name;
  }
}

}  // namespace
