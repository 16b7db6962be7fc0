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
#include "benchmarks/generators.hpp"
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

    const auto m = core::modular_synthesis(g);
    ASSERT_TRUE(m.success) << pin.name;
    EXPECT_EQ(m.final_states, pin.states) << pin.name;
    EXPECT_EQ(m.final_signals, pin.signals) << pin.name;
    EXPECT_EQ(m.total_literals, pin.literals) << pin.name;
  }
}

/// One "signal:cube + cube" line per cover, in the flow's signal order.
std::string covers_text(const core::FlowResult& r) {
  std::string text;
  for (const auto& [name, cover] : r.covers) text += name + ":" + cover.to_string() + "\n";
  return text;
}

TEST(Table1Pin, ModularCoversArePinned) {
  for (const ModularPin& pin : kModularPins) {
    const auto* b = benchmarks::find_benchmark(pin.name);
    ASSERT_NE(b, nullptr) << pin.name;
    const auto m = core::modular_synthesis(sg::StateGraph::from_stg(b->make()));
    ASSERT_TRUE(m.success) << pin.name;
    EXPECT_EQ(svc::sha256_hex(covers_text(m)), pin.covers_sha256) << pin.name << "\n"
                                                                  << covers_text(m);
  }
}

struct GeneratedPin {
  const char* name;
  std::size_t states, signals, literals;
  const char* covers_sha256;  ///< of covers_text()
};

// Modular synthesis of three generated specs, pinned like the rows above.
// Their final graphs (up to 7,887 states and 33 signals) are larger than
// any Table-1 graph, so they pin the minimizer on larger ON/OFF sets.
constexpr GeneratedPin kGeneratedPins[] = {
    {"pipeline:6", 7887, 20, 96,
     "94b0ed5ef7b8765deee130d214d38d8169a98b472e3b821b969ad7b10bf821a4"},
    {"parallelizer:4", 2419, 14, 40,
     "3b065e862275f29c36f2dfbcbcfdf95338bb693332a64e2bf739c4d700e65748"},
    {"sequencer:10", 1968, 33, 219,
     "7435364ef542bfe3d64c4026d2dcfa48652f7696e81dd98e7509808352a38643"},
};

stg::Stg generated_spec(const std::string& name) {
  if (name == "pipeline:6") return benchmarks::gen_pipeline("pipe6", 6);
  if (name == "parallelizer:4") return benchmarks::gen_parallelizer("par4", 4);
  return benchmarks::gen_sequencer("seq10", 10);
}

TEST(GeneratedPin, ModularCoversArePinned) {
  for (const GeneratedPin& pin : kGeneratedPins) {
    const auto m = core::modular_synthesis(sg::StateGraph::from_stg(generated_spec(pin.name)));
    ASSERT_TRUE(m.success) << pin.name;
    EXPECT_EQ(m.final_states, pin.states) << pin.name;
    EXPECT_EQ(m.final_signals, pin.signals) << pin.name;
    EXPECT_EQ(m.total_literals, pin.literals) << pin.name;
    EXPECT_EQ(svc::sha256_hex(covers_text(m)), pin.covers_sha256) << pin.name;
  }
}

struct BaselinePin {
  const char* name;
  // direct (Vanbekbergen): final states/signals/literals
  std::size_t v_states, v_signals, v_literals;
  // monolithic (Lavagno-style): final signals/literals
  std::size_t l_signals, l_literals;
  // covers_text() digests, recorded before the three methods shared one
  // insertion skeleton
  const char* v_covers_sha256;
  const char* l_covers_sha256;
};

constexpr BaselinePin kBaselinePins[] = {
    {"mmu1", 156, 11, 29, 11, 23,
     "99b5fe924934c9894d78283a5c58bbf68c75ad1c731ed4e62088b8123aaef8cd",
     "a54e29436dd6ba94957c9692588fc66a9f43801767cbd4c8df6658cec6d00197"},
    {"sbuf-ram-write", 96, 13, 69, 13, 86,
     "00a42c9c3ac9c39eb6319e52991fa28689b461730977e776359580eea809255e",
     "e6aaf95ec099d4fbdf887823625bd8449a8ea0f1e8d5b588a460a6bf7f97d454"},
    {"atod", 32, 8, 19, 8, 31,
     "e6666320bb2166b7dc4d9dad6a39e4cd890f26470b0d7e497b19feb1e695fd46",
     "de632b780d2cd92375a5d60b7555ce4c2d1e60933f0871a132636c63d0d26f9a"},
    {"pa", 38, 7, 28, 7, 27,
     "34536e035acf800f97adcfb15ba9477b867fb9852b171020c846b7b984232e41",
     "94d3eb3c4629fa64aed068cd030824d8022c745a74fb5f37deb3c5c994235bb5"},
    {"alloc-outbound", 22, 9, 23, 9, 23,
     "79d63e157bf13d7ddc9955e906bd855e060b14eac9211a10e987abeed7f70b06",
     "f8b6be7457bfa218a52eec72fc5e99e06acd87d64e3970e6fd7ca393a1b67ffe"},
    {"wrdata", 38, 7, 26, 7, 31,
     "c82461ee9f27c34148b1b9751a3a164e47f0dd0fd0bacf6a8c8b5062501e7ff5",
     "f7a7b6587f803a8c44886ec873feccd391549cac5f4823605aaee43ca04d2c2b"},
    {"fifo", 31, 7, 25, 8, 66,
     "996bc85afab5554440e981b18e3e3589c443906028809b2e5481071badd708d6",
     "ac61b3179317e92b04e16e667b7f25a39af0179208289a60597c105e3ed2caa1"},
    {"sbuf-read-ctl", 18, 7, 16, 7, 14,
     "930be27e631a32892d7672ffd3f7ba08447ca0df14aa4c60d35f3042636b7ba4",
     "762a1589ab45ffc41749f1a883d1dc87ace4a3fc97a6f19d473f4f4371fa3a23"},
    {"nouse", 20, 5, 10, 5, 10,
     "ce978e3498e8fc075beb63e7b4eb5f4795bcc3d5e4dd2385d1fda4a5cf86e95f",
     "d8f75923e6f212321c7a22f9878a7e5c237d68cc0eeef4e6783e205b5b86985e"},
    {"vbe-ex2", 12, 3, 7, 3, 7,
     "c2427ce00468b323e73d6f35dfe23bbf4a25b2d63cf97e0e5117585de4396e8e",
     "0b7923a5911fcd9e4ffc1e609e6746adf074d9a6473ebc9993e8b32eda761e59"},
    {"nousc-ser", 10, 4, 12, 7, 39,
     "cec05e52a1b3e2380760527ae2ceffa07b9c505dd6f6124e2384ec3af5ff5d59",
     "6862d4a4520335036c6add647bb910bb683447f076cce58db178ce44301f30d4"},
    {"sendr-done", 13, 5, 11, 5, 18,
     "57c112d66f836ce58bcf11bee0ad0aece3b479879a66d5ec83d099cb8e982f75",
     "8d0b00a62c6892ed7c8ca28568f74e1eb78197a3bebb9f6d973b7e1da30be705"},
    {"vbe-ex1", 6, 3, 7, 3, 7,
     "c2427ce00468b323e73d6f35dfe23bbf4a25b2d63cf97e0e5117585de4396e8e",
     "0cf6f6ebb3b952b6c0c0baa2d1ac193bf38b161a9298ea9c686896ce46e37dbf"},
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
    EXPECT_EQ(svc::sha256_hex(covers_text(v)), pin.v_covers_sha256) << pin.name << "\n"
                                                                    << covers_text(v);

    baseline::LavagnoOptions lopts;
    lopts.solve.max_backtracks = 2000000;
    lopts.solve.time_limit_s = 20.0;
    lopts.time_limit_s = 300.0;
    const auto l = baseline::lavagno_synthesis(g, lopts);
    ASSERT_TRUE(l.success) << pin.name;
    EXPECT_EQ(l.final_signals, pin.l_signals) << pin.name;
    EXPECT_EQ(l.total_literals, pin.l_literals) << pin.name;
    EXPECT_EQ(svc::sha256_hex(covers_text(l)), pin.l_covers_sha256) << pin.name << "\n"
                                                                    << covers_text(l);
  }
}

}  // namespace
