// Pins the shape of the explicit state graphs the flow builds: the signal
// count, the initial state, every code and every out-row, in state-id
// order, as one SHA-256 per graph.  Table1Pin.* pins what the flow derives
// from these graphs; this pins the graphs themselves, so a change to how a
// graph is stored or built cannot renumber states or reorder edges
// unnoticed.  The digests were recorded from the per-state layout (one
// BitVec and one edge vector per state) that the flat layout replaced.
#include <gtest/gtest.h>

#include <string>

#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "core/input_set.hpp"
#include "core/synthesis.hpp"
#include "sg/assignments.hpp"
#include "sg/projection.hpp"
#include "sg/state_graph.hpp"
#include "svc/digest.hpp"

namespace {

using namespace mps;

/// "signals initial" then one "code: sig±to ..." line per state.
std::string shape_digest(const sg::StateGraph& g) {
  svc::Sha256 h;
  h.update(std::to_string(g.num_signals()) + " " + std::to_string(g.initial()) + "\n");
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    std::string row = g.code(s).to_string() + ":";
    for (const sg::Edge& e : g.out(s)) {
      row += " " + (e.is_silent() ? std::string("eps") : std::to_string(e.sig)) +
             (e.rise ? "+" : "-") + std::to_string(e.to);
    }
    h.update(row + "\n");
  }
  return h.hex_digest();
}

struct Pin {
  const char* name;
  const char* sha256;
};

stg::Stg spec_of(const std::string& name) {
  if (name == "pipeline:6") return benchmarks::gen_pipeline("pipe6", 6);
  if (name == "parallelizer:4") return benchmarks::gen_parallelizer("par4", 4);
  if (name == "sequencer:10") return benchmarks::gen_sequencer("seq10", 10);
  return benchmarks::find_benchmark(name)->make();
}

constexpr Pin kFromStgPins[] = {
    {"mr0",
     "bd31a556353ebc17a094676b3fcb17d358a9676ed93f3bf94ad4db4582725ef7"},
    {"mr1",
     "6d793726d9492ae935f33f90a7ee3d8dd37afa06358c0bd87bd5b5a0119af7ef"},
    {"mmu0",
     "93ca45a06ee8a47e543ecf4583597465a2908538cfc804b07d73eef08f326478"},
    {"mmu1",
     "e72099ad8de307243d0ccd7b4e106c1aeaa4415ac81e818823a2b2ea418c3da8"},
    {"sbuf-ram-write",
     "07e6f2686845049dfbc17cbaa938b65189e1fc33529cc29ae0d6420ef76f852f"},
    {"vbe4a",
     "83a7990f3cd9ad10690a152fa1bda9c5b4db5e80543a20e09dd0c8bb2a62e7a4"},
    {"nak-pa",
     "01ee8e30cbeaa9ffb42ac3e14b0ae0d923a3fffe04ca1a750f4f832fba2c0ee8"},
    {"pe-rcv-ifc-fc",
     "b34e99aec909b73bffe68497fed8b713f37a92be99d048db34507e3465b6bab6"},
    {"ram-read-sbuf",
     "da0dfc0d36decb27d00b323eaf96011d395c62bbbd52b0d26e75750c4164cce7"},
    {"alex-nonfc",
     "6571529be0fc8a8dd5de6c5f8a6791a9112d81e1c82bc273a2e17964ebaecf64"},
    {"sbuf-send-pkt2",
     "b7cc35decb8deab704073323052ca73bbdbce5badb15489d6a801dcdc92c64ff"},
    {"sbuf-send-ctl",
     "ac1ed2e3d570d62906eddd0a5584c445490df3f7b5b71d40395362afc3f230a9"},
    {"atod",
     "90d3eb3920f8373e5a69e2c9c4d99bfe19c9158c18e3700b345ea123554db545"},
    {"pa",
     "0616736e3f53412ce4641878e3b37c225431fdaf8a94c31fba522c4ff6d74fc6"},
    {"alloc-outbound",
     "1cd295e7dac30f3f0ff32a8e47adc849cab5b1f63145a7726a1fdaba92e23d58"},
    {"wrdata",
     "d75cee18881968e860d2ec053bd05d0c14594fbbc1b27807aa4f8054ebbed2b1"},
    {"fifo",
     "217b81660d76b7acad60afb11a05a2f8abf3b10e726e017519a6659539201211"},
    {"sbuf-read-ctl",
     "2b2552c9e6e66db55aaa6a2014c70b61b1aaa4bdbdbead25fca0263429807fe5"},
    {"nouse",
     "694c18fdc56989422287fce9a9f3e11f17f459a37bb6acec2e3dc6db15a2f98e"},
    {"vbe-ex2",
     "7cade7f156e3f16346878a673eaa1a5eb80748f1f35a122f9199406058d0c427"},
    {"nousc-ser",
     "a9b307fc2e386c2aa1440e8de3026594868ae5ec547dc72cac1813c7837cb12c"},
    {"sendr-done",
     "4e72d6a4bed914965f5fb7dae5a8d5539d7b651b11741bce9ddd0afb03e461e7"},
    {"vbe-ex1",
     "3d3ccb92a93061d1e09b2023a54f29b13cc929788965fc0a286565456b282caf"},
    {"pipeline:6",
     "794f4ef3b2e11714e25cef899c70c6cb2c63e3516f6da89ec9a2a4b3f95c584b"},
    {"parallelizer:4",
     "b7f9aaeb47fb196440b0f5f41e1d5ece560fa8b439c90409fd95f6ac470e1b23"},
    {"sequencer:10",
     "76490d199a5f2e291ade1094b7481484c021b28a79fe909280a1d6accaecf2ac"},
};

TEST(GraphShapePin, FromStg) {
  for (const Pin& pin : kFromStgPins) {
    EXPECT_EQ(shape_digest(sg::StateGraph::from_stg(spec_of(pin.name))), pin.sha256)
        << pin.name;
  }
}

/// The module quotient of each Table-1 spec's first non-input signal: its
/// input set with no state signals yet, as the flow's first round sees it.
constexpr Pin kHidePins[] = {
    {"mr0",
     "9b542c59bc776f02e1e701515ae6c930074214ce2baaaede9ebd0e9c4a20e560"},
    {"mr1",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"mmu0",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"mmu1",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"sbuf-ram-write",
     "c6cd5881330297ad5333fc7b428cbd6d3eb6c5b9fd1edf9e46ec7e4e2d6bc9f8"},
    {"vbe4a",
     "3af8f9309e8cb6f8ad8bac891391203c875f3b81793a24353559be7a7cc244a8"},
    {"nak-pa",
     "75edda502b1de1f03c7d76a0f94547e8b530d504dfde554f0c8c041970c25487"},
    {"pe-rcv-ifc-fc",
     "7c088dcebfb9185d5fa340263a3ba903a8243aff05674377e5bc4196c0596c11"},
    {"ram-read-sbuf",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"alex-nonfc",
     "f508e943e90aac57dba352d4cd4be7229be324df5d8ff059fc7b5953e5b20ee6"},
    {"sbuf-send-pkt2",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"sbuf-send-ctl",
     "3d3ccb92a93061d1e09b2023a54f29b13cc929788965fc0a286565456b282caf"},
    {"atod",
     "a19146e0fc2f1a8084aac13fbddfb2cf87f434b99695894711f5d375be9e6d7c"},
    {"pa",
     "0616736e3f53412ce4641878e3b37c225431fdaf8a94c31fba522c4ff6d74fc6"},
    {"alloc-outbound",
     "fb7daa198e5bab4dbefd25e32e0376d5bb61dbb143f0785514e4ee142433854e"},
    {"wrdata",
     "d75cee18881968e860d2ec053bd05d0c14594fbbc1b27807aa4f8054ebbed2b1"},
    {"fifo",
     "80422d13928adf6c7fed388e858fb064bee9c4390cc023277df8f0348c2eb3a4"},
    {"sbuf-read-ctl",
     "a8f30f4fb635360d67eba20e3e12b7b4392edc21e86bfc41e729950f574c2b9d"},
    {"nouse",
     "01520d3cb7f36786b86b0cffdffdca704de21a2add73321d89c199903067b2db"},
    {"vbe-ex2",
     "7cade7f156e3f16346878a673eaa1a5eb80748f1f35a122f9199406058d0c427"},
    {"nousc-ser",
     "a9b307fc2e386c2aa1440e8de3026594868ae5ec547dc72cac1813c7837cb12c"},
    {"sendr-done",
     "01520d3cb7f36786b86b0cffdffdca704de21a2add73321d89c199903067b2db"},
    {"vbe-ex1",
     "3d3ccb92a93061d1e09b2023a54f29b13cc929788965fc0a286565456b282caf"},
};

TEST(GraphShapePin, HideSignalsModule) {
  for (const Pin& pin : kHidePins) {
    const auto g = sg::contract_silent(sg::StateGraph::from_stg(spec_of(pin.name)));
    sg::SignalId o = 0;
    while (g.is_input(o)) ++o;
    const sg::Assignments none(g.num_states());
    util::BitVec hide = core::determine_input_set(g, o, none).kept;
    for (sg::SignalId s = 0; s < g.num_signals(); ++s) hide.flip(s);
    EXPECT_EQ(shape_digest(sg::hide_signals(g, hide).graph), pin.sha256) << pin.name;
  }
}

/// The final graph of a modular run: sg::expand's output for the last round.
constexpr Pin kExpandPins[] = {
    {"mmu1",
     "ba6b2666e5d3791a36958712f4bc7ade530d7e9c2c414b4a31fa145869151413"},
    {"nak-pa",
     "3473bcb9e19848e7375d6d211b9f0afb062986e878426a36a97f3268052d0872"},
};

TEST(GraphShapePin, ExpandFromModularRound) {
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  for (const Pin& pin : kExpandPins) {
    const auto r = core::modular_synthesis(sg::StateGraph::from_stg(spec_of(pin.name)), opts);
    ASSERT_TRUE(r.success) << pin.name;
    ASSERT_GT(r.rounds, 0) << pin.name;
    EXPECT_EQ(shape_digest(r.final_graph), pin.sha256) << pin.name;
  }
}

}  // namespace
