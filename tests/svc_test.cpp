// Service-layer unit tests: JSON wire format, SHA-256 digests, the
// two-tier result cache, the single-flight bounded scheduler, canonical .g
// rendering, option fingerprints, artifact round-trips, and the
// transport-independent Service protocol handler.  Socket-level behaviour
// (daemon boot, drain-on-SIGTERM, client byte-identity) is covered by
// tests/check_protocol.cmake and svc_soak_test.cpp.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mps.hpp"

namespace {

using namespace mps;

// ---------------------------------------------------------------- JSON --

TEST(SvcJson, RoundTripIsByteIdentical) {
  const std::string text =
      R"({"name":"demo","count":42,"ratio":0.5,"ok":true,"missing":null,)"
      R"("list":[1,2,3],"nested":{"a":"b"}})";
  const svc::Json j = svc::Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  // And a second round trip through the dumped form.
  EXPECT_EQ(svc::Json::parse(j.dump()).dump(), text);
}

TEST(SvcJson, ObjectOrderIsPreserved) {
  svc::Json j = svc::Json::object();
  j.set("zebra", 1);
  j.set("apple", 2);
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2})");
}

TEST(SvcJson, IntegersNeverGainDecimalPoints) {
  svc::Json j = svc::Json::object();
  j.set("n", svc::Json(std::int64_t{5}));
  j.set("d", svc::Json(5.0));
  const std::string dumped = j.dump();
  EXPECT_NE(dumped.find("\"n\":5,"), std::string::npos) << dumped;
  const svc::Json back = svc::Json::parse(dumped);
  EXPECT_EQ(back.find("n")->kind(), svc::Json::Kind::Int);
  EXPECT_EQ(back.find("d")->kind(), svc::Json::Kind::Double);
  EXPECT_EQ(back.dump(), dumped);
}

TEST(SvcJson, StringEscapes) {
  svc::Json j = svc::Json::object();
  j.set("s", std::string("line1\nline2\t\"quoted\" \\ \x01"));
  const svc::Json back = svc::Json::parse(j.dump());
  EXPECT_EQ(back.get_string("s", ""), "line1\nline2\t\"quoted\" \\ \x01");
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(svc::Json::parse("\"a\\u00e9b\"").as_string(),
            "a\xc3\xa9" "b");  // split: \xa9b would greedily parse as \xa9b
}

TEST(SvcJson, ParseErrors) {
  EXPECT_THROW(svc::Json::parse(""), util::ParseError);
  EXPECT_THROW(svc::Json::parse("{"), util::ParseError);
  EXPECT_THROW(svc::Json::parse("[1,]"), util::ParseError);
  EXPECT_THROW(svc::Json::parse("\"unterminated"), util::ParseError);
  EXPECT_THROW(svc::Json::parse("{} trailing"), util::ParseError);
  EXPECT_THROW(svc::Json::parse("nul"), util::ParseError);
}

TEST(SvcJson, TypedGettersFallBack) {
  const svc::Json j = svc::Json::parse(R"({"n":3,"s":"x"})");
  EXPECT_EQ(j.get_int("n", -1), 3);
  EXPECT_EQ(j.get_int("s", -1), -1);    // wrong kind
  EXPECT_EQ(j.get_int("absent", -1), -1);
  EXPECT_EQ(j.get_string("s", "d"), "x");
  EXPECT_EQ(j.get_string("n", "d"), "d");
  // Doubles count as ints only when integral and within int64.
  const svc::Json d = svc::Json::parse(R"({"w":2.0,"f":1.5,"big":1e300})");
  EXPECT_EQ(d.get_int("w", -1), 2);
  EXPECT_EQ(d.get_int("f", -1), -1);
  EXPECT_EQ(d.get_int("big", -1), -1);
}

// -------------------------------------------------------------- SHA-256 --

TEST(SvcDigest, FipsVectors) {
  // FIPS 180-4 / NIST test vectors.
  EXPECT_EQ(svc::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(svc::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(svc::sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(svc::sha256_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(SvcDigest, IncrementalMatchesOneShot) {
  svc::Sha256 h;
  h.update("ab");
  h.update("");
  h.update("c");
  EXPECT_EQ(h.hex_digest(), svc::sha256_hex("abc"));
}

// ---------------------------------------------------------------- Cache --

std::string test_digest(char fill) { return std::string(64, fill); }

TEST(SvcCache, MemoryTierPutGet) {
  svc::Cache cache;  // memory-only
  EXPECT_FALSE(cache.get(test_digest('a')).has_value());
  cache.put(test_digest('a'), "payload-a");
  const auto hit = cache.get(test_digest('a'));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-a");
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.mem_hits, 1);
  EXPECT_EQ(s.puts, 1);
}

TEST(SvcCache, DiskTierSurvivesRestart) {
  const std::string dir = testing::TempDir() + "svc_cache_restart";
  std::filesystem::remove_all(dir);
  {
    svc::CacheOptions opts;
    opts.dir = dir;
    svc::Cache cache(opts);
    cache.put(test_digest('b'), "payload-b");
  }
  svc::CacheOptions opts;
  opts.dir = dir;
  svc::Cache cache(opts);  // fresh instance: memory tier empty
  const auto hit = cache.get(test_digest('b'));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-b");
  EXPECT_EQ(cache.stats().disk_hits, 1);
  // The disk hit was promoted: a second get is a memory hit.
  EXPECT_TRUE(cache.get(test_digest('b')).has_value());
  EXPECT_EQ(cache.stats().mem_hits, 1);
}

TEST(SvcCache, CorruptEntriesAreMissesNotErrors) {
  const std::string dir = testing::TempDir() + "svc_cache_corrupt";
  std::filesystem::remove_all(dir);
  svc::CacheOptions opts;
  opts.dir = dir;
  opts.mem_entries = 0;  // force every get to the disk tier
  svc::Cache cache(opts);
  cache.put(test_digest('c'), "payload-c");
  ASSERT_TRUE(cache.get(test_digest('c')).has_value());

  // Truncate the entry mid-payload.
  const std::string path = cache.entry_path(test_digest('c'));
  ASSERT_FALSE(path.empty());
  { std::ofstream(path, std::ios::trunc) << "mps-cache "; }
  EXPECT_FALSE(cache.get(test_digest('c')).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  // The corrupt file was removed, so the next lookup is a clean miss.
  EXPECT_FALSE(std::filesystem::exists(path));

  // An entry whose header digest disagrees with its filename is foreign.
  cache.put(test_digest('d'), "payload-d");
  std::filesystem::copy_file(cache.entry_path(test_digest('d')),
                             cache.entry_path(test_digest('e')));
  EXPECT_FALSE(cache.get(test_digest('e')).has_value());
  EXPECT_EQ(cache.stats().corrupt, 2);
}

TEST(SvcCache, LruEvictsOldest) {
  svc::CacheOptions opts;
  opts.mem_entries = 2;
  svc::Cache cache(opts);  // memory-only, capacity 2
  cache.put(test_digest('1'), "p1");
  cache.put(test_digest('2'), "p2");
  ASSERT_TRUE(cache.get(test_digest('1')).has_value());  // 1 is now most-recent
  cache.put(test_digest('3'), "p3");                     // evicts 2
  EXPECT_TRUE(cache.get(test_digest('1')).has_value());
  EXPECT_FALSE(cache.get(test_digest('2')).has_value());
  EXPECT_TRUE(cache.get(test_digest('3')).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries_mem, 2);
}

// ------------------------------------------------------------ Scheduler --

TEST(SvcScheduler, RunsJobsAndReportsResults) {
  svc::Scheduler sched({.num_threads = 2, .queue_cap = 8});
  auto [admit, ticket] = sched.submit("job-1", [] {
    svc::Scheduler::Result r;
    r.payload = "done";
    return r;
  });
  ASSERT_EQ(admit, svc::Scheduler::Admit::Started);
  const auto& result = ticket.wait();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.payload, "done");
  EXPECT_EQ(sched.stats().completed, 1);
}

TEST(SvcScheduler, ThrowingWorkPoisonsTheJobNotTheWorker) {
  svc::Scheduler sched({.num_threads = 1, .queue_cap = 8});
  auto [admit, ticket] =
      sched.submit("boom", []() -> svc::Scheduler::Result { throw util::Error("kaboom"); });
  ASSERT_EQ(admit, svc::Scheduler::Admit::Started);
  EXPECT_FALSE(ticket.wait().ok());
  EXPECT_NE(ticket.wait().error.find("kaboom"), std::string::npos);
  // The worker survived: a following job still runs.
  auto [admit2, ticket2] = sched.submit("after", [] {
    return svc::Scheduler::Result{"ok", ""};
  });
  ASSERT_EQ(admit2, svc::Scheduler::Admit::Started);
  EXPECT_EQ(ticket2.wait().payload, "ok");
}

/// A latch the tests use to hold a job "running" deterministically.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;
  void wait_open() {
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(m);
    open = true;
    cv.notify_all();
  }
};

TEST(SvcScheduler, SingleFlightCollapsesIdenticalKeys) {
  svc::Scheduler sched({.num_threads = 1, .queue_cap = 8});
  Gate gate;
  std::atomic<int> runs{0};
  auto work = [&] {
    ++runs;
    gate.wait_open();
    return svc::Scheduler::Result{"shared", ""};
  };
  auto [a1, t1] = sched.submit("same-key", work);
  ASSERT_EQ(a1, svc::Scheduler::Admit::Started);
  gate.wait_entered();  // job is running now
  auto [a2, t2] = sched.submit("same-key", work);
  EXPECT_EQ(a2, svc::Scheduler::Admit::Joined);
  auto [a3, t3] = sched.submit("same-key", work);
  EXPECT_EQ(a3, svc::Scheduler::Admit::Joined);
  gate.release();
  EXPECT_EQ(t1.wait().payload, "shared");
  EXPECT_EQ(t2.wait().payload, "shared");
  EXPECT_EQ(t3.wait().payload, "shared");
  EXPECT_EQ(runs.load(), 1);  // one synthesis for three requests
  EXPECT_EQ(sched.stats().joined, 2);
  EXPECT_EQ(sched.stats().submitted, 1);
}

TEST(SvcScheduler, QueueCapRejectsImmediately) {
  svc::Scheduler sched({.num_threads = 1, .queue_cap = 1});
  Gate gate;
  auto blocker = [&] {
    gate.wait_open();
    return svc::Scheduler::Result{"a", ""};
  };
  auto [a1, t1] = sched.submit("a", blocker);
  ASSERT_EQ(a1, svc::Scheduler::Admit::Started);
  gate.wait_entered();  // worker busy; queue empty
  auto [a2, t2] = sched.submit("b", [] { return svc::Scheduler::Result{"b", ""}; });
  ASSERT_EQ(a2, svc::Scheduler::Admit::Started);  // fills the queue (cap 1)
  auto [a3, t3] = sched.submit("c", [] { return svc::Scheduler::Result{"c", ""}; });
  EXPECT_EQ(a3, svc::Scheduler::Admit::Overloaded);
  EXPECT_FALSE(t3.valid());
  EXPECT_EQ(sched.stats().rejected, 1);
  gate.release();
  EXPECT_EQ(t1.wait().payload, "a");
  EXPECT_EQ(t2.wait().payload, "b");
}

TEST(SvcScheduler, DrainCompletesAdmittedThenRejects) {
  svc::Scheduler sched({.num_threads = 1, .queue_cap = 8});
  Gate gate;
  auto [a1, t1] = sched.submit("slow", [&] {
    gate.wait_open();
    return svc::Scheduler::Result{"finished", ""};
  });
  ASSERT_EQ(a1, svc::Scheduler::Admit::Started);
  auto [a2, t2] = sched.submit("queued", [] { return svc::Scheduler::Result{"also", ""}; });
  ASSERT_EQ(a2, svc::Scheduler::Admit::Started);
  gate.wait_entered();

  std::thread release_later([&] { gate.release(); });
  sched.drain();  // must complete both admitted jobs before returning
  release_later.join();
  EXPECT_EQ(t1.wait().payload, "finished");
  EXPECT_EQ(t2.wait().payload, "also");
  auto [a3, t3] = sched.submit("late", [] { return svc::Scheduler::Result{"no", ""}; });
  EXPECT_EQ(a3, svc::Scheduler::Admit::Overloaded);  // draining ⇒ no admission
}

// ----------------------------------------------- canonical .g rendering --

TEST(SvcCanonicalG, InvariantUnderInputReordering) {
  // The same net written with its graph lines (and per-line targets) in a
  // different order must canonicalize identically.
  const char* variant_a =
      ".model perm\n.inputs a\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";
  const char* variant_b =
      ".model perm\n.inputs a\n.outputs b\n.graph\n"
      "b- a+\na- b-\nb+ a-\na+ b+\n.marking { <b-,a+> }\n.end\n";
  const auto ca = stg::write_g_canonical(stg::parse_g(variant_a));
  const auto cb = stg::write_g_canonical(stg::parse_g(variant_b));
  EXPECT_EQ(ca, cb);
  // Canonical text is still valid .g and a fixed point of canonicalization.
  EXPECT_EQ(stg::write_g_canonical(stg::parse_g(ca)), ca);
}

TEST(SvcCanonicalG, SignalOrderIsPreserved) {
  // Signal declaration order is semantic (it fixes signal ids and the cube
  // variable order), so canonicalization must NOT sort it away.
  const char* spec =
      ".model order\n.inputs z a\n.outputs m\n.graph\n"
      "z+ a+\na+ m+\nm+ z-\nz- a-\na- m-\nm- z+\n.marking { <m-,z+> }\n.end\n";
  const auto canon = stg::write_g_canonical(stg::parse_g(spec));
  EXPECT_NE(canon.find(".inputs z a"), std::string::npos) << canon;
}

// ----------------------------------------------------------- fingerprints --

TEST(SvcFingerprint, ThreadsAreExcludedResultAffectingFieldsIncluded) {
  svc::RequestOptions base = svc::default_request_options("modular");

  svc::RequestOptions threads8 = base;
  threads8.threads = 8;
  EXPECT_EQ(svc::request_fingerprint(base), svc::request_fingerprint(threads8))
      << "the ignored threads field must not change the cache key";

  svc::RequestOptions deadline = base;
  deadline.deadline_s = 5.0;
  EXPECT_NE(svc::request_fingerprint(base), svc::request_fingerprint(deadline));

  svc::RequestOptions seed = base;
  seed.modular.sat.solve.seed += 1;
  EXPECT_NE(svc::request_fingerprint(base), svc::request_fingerprint(seed));

  EXPECT_NE(svc::request_fingerprint(svc::default_request_options("direct")),
            svc::request_fingerprint(svc::default_request_options("lavagno")));
}

TEST(SvcFingerprint, EngineSelectorChangesEveryMethodsFingerprint) {
  // A cached DPLL artifact must never satisfy a CDCL request (and vice
  // versa): the engines explore different search paths, so solver-effort
  // fields and LIMIT outcomes differ even when the circuit agrees.
  for (const char* method : {"modular", "direct", "lavagno"}) {
    const svc::RequestOptions dpll = svc::default_request_options(method);
    svc::RequestOptions cdcl = dpll;
    svc::set_engine(&cdcl, sat::Engine::Cdcl);
    EXPECT_NE(svc::request_fingerprint(dpll), svc::request_fingerprint(cdcl))
        << method << ": engine must be part of the cache key";
  }
}

TEST(SvcFingerprint, DigestBindsSpecAndOptions) {
  const stg::Stg spec_a = stg::parse_g(
      ".model a\n.inputs x\n.outputs y\n.graph\nx+ y+\ny+ x-\nx- y-\ny- x+\n"
      ".marking { <y-,x+> }\n.end\n");
  const auto opts = svc::default_request_options("modular");
  const std::string d1 = svc::request_digest(spec_a, opts);
  EXPECT_EQ(d1.size(), 64u);
  EXPECT_EQ(d1, svc::request_digest(spec_a, opts)) << "digest must be deterministic";

  auto direct = svc::default_request_options("direct");
  EXPECT_NE(d1, svc::request_digest(spec_a, direct));

  auto cdcl = opts;
  svc::set_engine(&cdcl, sat::Engine::Cdcl);
  EXPECT_NE(d1, svc::request_digest(spec_a, cdcl))
      << "same spec, different engine must hash to a different cache entry";
}

// ------------------------------------------------------------- Artifact --

svc::Artifact sample_artifact() {
  svc::Artifact a;
  a.name = "sample";
  a.method = "modular";
  a.success = true;
  a.initial_states = 18;
  a.initial_signals = 4;
  a.final_states = 28;
  a.final_signals = 5;
  a.literals = 21;
  a.signal_names = {"req", "ack", "d", "q", "csc0"};
  a.inserted_signals = {"csc0"};
  a.covers = {{"ack", {"10-1-", "01--0"}}, {"d", {"--1-1"}}};
  a.verilog = "module sample;\nendmodule\n";
  a.gates = 3;
  a.transistors = 14;
  a.verify_ok = true;
  a.solver.decisions = 100;
  a.solver.propagations = 2000;
  a.solver.conflicts = 7;
  a.solver.restarts = 3;
  a.solver.learned = 42;
  a.seconds = 0.125;
  return a;
}

TEST(SvcArtifact, SerializeDeserializeRoundTrip) {
  const svc::Artifact a = sample_artifact();
  const std::string wire = a.serialize();
  const auto back = svc::Artifact::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), wire) << "round trip must be byte-identical";
  EXPECT_EQ(back->name, "sample");
  EXPECT_EQ(back->covers, a.covers);
  EXPECT_EQ(back->signal_names, a.signal_names);
  EXPECT_EQ(back->solver.propagations, 2000);
  EXPECT_EQ(back->solver.restarts, 3);
  EXPECT_EQ(back->solver.learned, 42);
  EXPECT_DOUBLE_EQ(back->seconds, 0.125);
}

TEST(SvcArtifact, VersionMismatchAndGarbageAreRejected) {
  EXPECT_FALSE(svc::Artifact::deserialize("not json").has_value());
  EXPECT_FALSE(svc::Artifact::deserialize("{}").has_value());
  svc::Json j = sample_artifact().to_json();
  j.members();  // ensure object
  std::string wire = j.dump();
  const std::string needle = "\"artifact_version\":" + std::to_string(svc::Artifact::kVersion);
  const auto pos = wire.find(needle);
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, needle.size(), "\"artifact_version\":999");
  EXPECT_FALSE(svc::Artifact::deserialize(wire).has_value());
}

TEST(SvcArtifact, RebuildCoversMatchesCubeStrings) {
  const svc::Artifact a = sample_artifact();
  const auto covers = a.rebuild_covers();
  ASSERT_EQ(covers.size(), 2u);
  EXPECT_EQ(covers[0].first, "ack");
  ASSERT_EQ(covers[0].second.size(), 2u);
  EXPECT_EQ(covers[0].second.cubes()[0].to_string(), "10-1-");
  EXPECT_EQ(covers[1].second.cubes()[0].to_string(), "--1-1");
}

// ----------------------------------------------------------- run_synthesis --

stg::Stg tiny_spec() {
  return stg::Builder("tinyio")
      .inputs({"req"})
      .outputs({"ack"})
      .path("req+", "ack+", "req-", "ack-")
      .arc("ack-", "req+")
      .token("ack-", "req+")
      .build();
}

TEST(SvcRunSynthesis, ProducesAVerifiedArtifact) {
  const svc::Artifact a = svc::run_synthesis(tiny_spec(), svc::default_request_options("modular"));
  EXPECT_TRUE(a.success) << a.failure_reason;
  EXPECT_TRUE(a.verify_ok);
  EXPECT_EQ(a.name, "tinyio");
  EXPECT_EQ(a.signal_names.size(), a.final_signals);
  EXPECT_FALSE(a.covers.empty());
  // Serialized form survives the cache round trip bit-exactly.
  const auto back = svc::Artifact::deserialize(a.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), a.serialize());
}

TEST(SvcRunSynthesis, ExpiredDeadlineFailsFast) {
  auto opts = svc::default_request_options("modular");
  opts.deadline_s = 1e-9;  // expires before the first round starts
  const svc::Artifact a = svc::run_synthesis(tiny_spec(), opts);
  EXPECT_FALSE(a.success);
  EXPECT_NE(a.failure_reason.find("deadline"), std::string::npos) << a.failure_reason;
}

// -------------------------------------------------------------- Service --

svc::ServiceOptions fast_service_options() {
  svc::ServiceOptions opts;
  opts.sched.num_threads = 2;
  opts.sched.queue_cap = 8;
  return opts;
}

TEST(SvcService, PingStatsAndUnknownOps) {
  svc::Service service(fast_service_options());
  EXPECT_EQ(service.handle_line(R"({"op":"ping"})"), R"({"ok":true,"op":"ping"})");

  const svc::Json stats = svc::Json::parse(service.handle_line(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.get_bool("ok", false));
  ASSERT_NE(stats.find("scheduler"), nullptr);
  EXPECT_EQ(stats.find("scheduler")->get_int("queue_cap", -1), 8);

  const svc::Json bad = svc::Json::parse(service.handle_line(R"({"op":"frobnicate"})"));
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_EQ(bad.get_string("kind", ""), "bad_request");

  const svc::Json garbage = svc::Json::parse(service.handle_line("][ not json"));
  EXPECT_FALSE(garbage.get_bool("ok", true));
  EXPECT_EQ(garbage.get_string("kind", ""), "bad_request");
}

TEST(SvcService, SynthRunsCachesAndReportsParseErrors) {
  svc::Service service(fast_service_options());
  const std::string g_text = stg::write_g(tiny_spec());

  svc::Json req = svc::Json::object();
  req.set("op", "synth");
  req.set("g", g_text);
  req.set("method", "modular");
  const svc::Json r1 = svc::Json::parse(service.handle_line(req.dump()));
  ASSERT_TRUE(r1.get_bool("ok", false)) << r1.dump();
  EXPECT_FALSE(r1.get_bool("cached", true));
  ASSERT_NE(r1.find("artifact"), nullptr);
  EXPECT_TRUE(r1.find("artifact")->get_bool("success", false));

  // Identical request: a cache hit with a byte-identical artifact.
  const svc::Json r2 = svc::Json::parse(service.handle_line(req.dump()));
  EXPECT_TRUE(r2.get_bool("cached", false));
  EXPECT_EQ(r1.find("artifact")->dump(), r2.find("artifact")->dump());
  EXPECT_EQ(r1.get_string("digest", "1"), r2.get_string("digest", "2"));

  // Malformed .g text is a protocol-level parse error, not a crash.
  svc::Json bad = svc::Json::object();
  bad.set("op", "synth");
  bad.set("g", ".model broken\n.inputs a\n.graph\nnonsense\n");
  const svc::Json r3 = svc::Json::parse(service.handle_line(bad.dump()));
  EXPECT_FALSE(r3.get_bool("ok", true));
  EXPECT_EQ(r3.get_string("kind", ""), "parse");

  // Missing 'g' and unknown method are bad requests.
  const svc::Json r4 = svc::Json::parse(service.handle_line(R"({"op":"synth"})"));
  EXPECT_EQ(r4.get_string("kind", ""), "bad_request");
  const svc::Json r5 = svc::Json::parse(
      service.handle_line(R"({"op":"synth","g":"x","method":"quantum"})"));
  EXPECT_EQ(r5.get_string("kind", ""), "bad_request");
}

TEST(SvcService, SynthCarriesTheEngineSelector) {
  svc::Service service(fast_service_options());
  const std::string g_text = stg::write_g(tiny_spec());

  auto synth = [&](const char* engine) {
    svc::Json req = svc::Json::object();
    req.set("op", "synth");
    req.set("g", g_text);
    req.set("method", "modular");
    if (engine != nullptr) req.set("engine", engine);
    return svc::Json::parse(service.handle_line(req.dump()));
  };

  // Both engines synthesize the spec; their cache digests must differ, and
  // the quality columns must agree (the engines disagree only on effort).
  const svc::Json dpll = synth("dpll");
  const svc::Json cdcl = synth("cdcl");
  ASSERT_TRUE(dpll.get_bool("ok", false)) << dpll.dump();
  ASSERT_TRUE(cdcl.get_bool("ok", false)) << cdcl.dump();
  EXPECT_NE(dpll.get_string("digest", "x"), cdcl.get_string("digest", "x"));
  const svc::Json* da = dpll.find("artifact");
  const svc::Json* ca = cdcl.find("artifact");
  ASSERT_NE(da, nullptr);
  ASSERT_NE(ca, nullptr);
  EXPECT_EQ(da->get_int("literals", -1), ca->get_int("literals", -2));
  EXPECT_EQ(da->get_int("final_states", -1), ca->get_int("final_states", -2));

  // Omitted engine defaults to dpll: same digest, now a cache hit.
  const svc::Json dflt = synth(nullptr);
  ASSERT_TRUE(dflt.get_bool("ok", false)) << dflt.dump();
  EXPECT_EQ(dflt.get_string("digest", "x"), dpll.get_string("digest", "y"));
  EXPECT_TRUE(dflt.get_bool("cached", false));

  // An unknown engine is a bad request, not a silent default.
  const svc::Json bad = synth("quantum");
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_EQ(bad.get_string("kind", ""), "bad_request");
  EXPECT_NE(bad.get_string("error", "").find("engine"), std::string::npos) << bad.dump();
}

TEST(SvcService, OutOfRangeThreadsAndDeadlinesAreBadRequests) {
  svc::Service service(fast_service_options());
  const std::string g_text = stg::write_g(tiny_spec());
  auto synth = [&](const char* field, const svc::Json& value) {
    svc::Json req = svc::Json::object();
    req.set("op", "synth");
    req.set("g", g_text);
    req.set(field, value);
    return svc::Json::parse(service.handle_line(req.dump()));
  };

  // Each of these used to crash the daemon (assertion, 2^32-thread pool,
  // clock overflow) or silently drop the deadline (null is how a NaN
  // deadline serializes).
  const std::vector<std::pair<const char*, svc::Json>> bad = {
      {"threads", svc::Json(1.5)},         {"threads", svc::Json(-1)},
      {"threads", svc::Json(65537)},       {"threads", svc::Json("4")},
      {"deadline_s", svc::Json(1e300)},    {"deadline_s", svc::Json(-1.0)},
      {"deadline_s", svc::Json()},
  };
  for (const auto& [field, value] : bad) {
    const svc::Json r = synth(field, value);
    EXPECT_FALSE(r.get_bool("ok", true)) << field << "=" << value.dump();
    EXPECT_EQ(r.get_string("kind", ""), "bad_request") << r.dump();
    EXPECT_NE(r.get_string("error", "").find(field), std::string::npos) << r.dump();
  }

  // The bounds themselves are accepted: 0 threads = one per hardware thread.
  const svc::Json zero = synth("threads", svc::Json(0));
  EXPECT_TRUE(zero.get_bool("ok", false)) << zero.dump();
  const svc::Json integral = synth("threads", svc::Json(2.0));
  EXPECT_TRUE(integral.get_bool("ok", false)) << integral.dump();

  // A fractional protocol number in the handshake falls back, no crash.
  const svc::Json v = svc::Json::parse(service.handle_line(R"({"op":"version","protocol":1.5})"));
  EXPECT_TRUE(v.get_bool("ok", false)) << v.dump();
}

TEST(SvcService, DrainOpSetsTheFlag) {
  svc::Service service(fast_service_options());
  EXPECT_FALSE(service.drain_requested());
  const svc::Json r = svc::Json::parse(service.handle_line(R"({"op":"drain"})"));
  EXPECT_TRUE(r.get_bool("ok", false));
  EXPECT_TRUE(service.drain_requested());
  service.drain();
}

// ------------------------------------------------------------ util::parse --

TEST(SvcParseInt, AcceptsWholeDecimalIntegersOnly) {
  EXPECT_EQ(util::parse_int("42", 0, 100), 42);
  EXPECT_EQ(util::parse_int("-7", -10, 10), -7);
  EXPECT_FALSE(util::parse_int("", 0, 100).has_value());
  EXPECT_FALSE(util::parse_int("12abc", 0, 100).has_value());
  EXPECT_FALSE(util::parse_int("abc", 0, 100).has_value());
  EXPECT_FALSE(util::parse_int(" 5", 0, 100).has_value());  // no whitespace skipping
  EXPECT_FALSE(util::parse_int("4.2", 0, 100).has_value());
  EXPECT_FALSE(util::parse_int("101", 0, 100).has_value());  // above max
  EXPECT_FALSE(util::parse_int("-1", 0, 100).has_value());   // below min
  // Overflow never wraps.
  EXPECT_FALSE(util::parse_int("99999999999999999999999", 0,
                               std::numeric_limits<std::int64_t>::max())
                   .has_value());
  EXPECT_EQ(util::parse_int("-9223372036854775808",
                            std::numeric_limits<std::int64_t>::min(), 0),
            std::numeric_limits<std::int64_t>::min());
}

}  // namespace
