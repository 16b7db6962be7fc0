// Socket-level concurrency soak for the service layer: a real svc::Server
// on a Unix socket, many concurrent svc::Clients.
//
// What must hold under concurrency:
//   - every client gets a complete, well-formed response (no torn lines,
//     no lost replies);
//   - identical requests produce byte-identical artifacts, however they
//     were served (fresh run, single-flight join, or cache hit);
//   - single-flight collapses the identical concurrent burst to (almost)
//     one synthesis;
//   - a full queue yields an immediate, clean `overloaded` error — not a
//     hang and not a dropped connection;
//   - an in-band {"op":"drain"} shuts the server down cleanly.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "mps.hpp"

namespace {

using namespace mps;

std::string temp_socket_path(const char* tag) {
  // Socket paths are length-limited (~108 bytes); keep them short and unique.
  return "/tmp/mps_" + std::string(tag) + "_" + std::to_string(::getpid()) + ".sock";
}

std::string bench_g_text(const char* name) {
  const auto* b = benchmarks::find_benchmark(name);
  if (b == nullptr) ADD_FAILURE() << "unknown benchmark " << name;
  return stg::write_g(b->make());
}

/// Poll the daemon's stats until `pred` holds (or ~5 s elapsed).
template <typename Pred>
bool wait_for_stats(svc::Client& client, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    const svc::Json stats = client.stats();
    if (pred(stats)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(SvcSoak, ConcurrentIdenticalRequestsCollapseAndAgree) {
  const std::string socket = temp_socket_path("soak");
  const std::string cache_dir = testing::TempDir() + "svc_soak_cache";
  std::filesystem::remove_all(cache_dir);

  svc::ServerOptions opts;
  opts.socket_path = socket;
  opts.service.cache.dir = cache_dir;
  opts.service.sched.num_threads = 2;
  opts.service.sched.queue_cap = 32;
  svc::Server server(opts);
  server.start();
  std::thread server_thread([&] { server.run(); });

  const std::string g_text = bench_g_text("mr1");
  constexpr int kClients = 8;
  std::vector<std::string> artifacts(kClients);
  std::vector<std::string> errors(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        svc::Client client(socket);  // connect before the barrier
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        const svc::Json resp = client.synth(g_text, "modular");
        if (!resp.get_bool("ok", false)) {
          errors[i] = resp.dump();
          return;
        }
        artifacts[i] = resp.find("artifact")->dump();
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go.store(true);  // fire all requests as one burst
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) EXPECT_EQ(errors[i], "") << "client " << i;
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(artifacts[i], artifacts[0])
        << "responses must be byte-identical regardless of how they were served";
  }
  EXPECT_FALSE(artifacts[0].empty());

  // The burst must have collapsed: with single-flight plus the cache, 8
  // identical requests may not cost anywhere near 8 syntheses.
  const svc::SchedulerStats sched = server.service().scheduler().stats();
  EXPECT_GE(sched.joined + server.service().cache().stats().mem_hits +
                server.service().cache().stats().disk_hits,
            kClients - 2)
      << "submitted=" << sched.submitted << " joined=" << sched.joined;
  EXPECT_LE(sched.submitted, 2);

  // In-band drain: the server must answer, then shut down cleanly.
  {
    svc::Client client(socket);
    const svc::Json resp = client.drain();
    EXPECT_TRUE(resp.get_bool("ok", false));
  }
  server_thread.join();  // run() returned ⇒ graceful drain completed
}

TEST(SvcSoak, QueueOverflowAnswersOverloadedImmediately) {
  const std::string socket = temp_socket_path("ovfl");
  svc::ServerOptions opts;
  opts.socket_path = socket;
  opts.service.sched.num_threads = 1;
  opts.service.sched.queue_cap = 1;
  svc::Server server(opts);
  server.start();
  std::thread server_thread([&] { server.run(); });

  // Three *distinct* requests (deadline_s participates in the cache key, so
  // distinct values mean distinct jobs): A occupies the single worker, B
  // fills the single queue slot, C must bounce.
  const std::string g_text = bench_g_text("mr0");
  std::string resp_a, resp_b;
  std::thread client_a([&] {
    svc::Client c(socket);
    resp_a = c.synth(g_text, "modular", 1000.0).dump();
  });

  svc::Client watcher(socket);
  ASSERT_TRUE(wait_for_stats(watcher, [](const svc::Json& s) {
    return s.find("scheduler")->get_int("running", 0) == 1;
  })) << "job A never started running";

  std::thread client_b([&] {
    svc::Client c(socket);
    resp_b = c.synth(g_text, "modular", 1001.0).dump();
  });
  ASSERT_TRUE(wait_for_stats(watcher, [](const svc::Json& s) {
    return s.find("scheduler")->get_int("queue_depth", 0) == 1;
  })) << "job B never queued";

  // C: queue full ⇒ immediate overloaded error, connection still healthy.
  svc::Client client_c(socket);
  const auto t0 = std::chrono::steady_clock::now();
  const svc::Json resp_c = client_c.synth(g_text, "modular", 1002.0);
  const double reject_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(resp_c.get_bool("ok", true));
  EXPECT_EQ(resp_c.get_string("kind", ""), "overloaded");
  EXPECT_LT(reject_s, 1.0) << "rejection must not wait for the queue";
  EXPECT_TRUE(client_c.ping().get_bool("ok", false))
      << "an overloaded reply must not wreck the connection";

  client_a.join();
  client_b.join();
  // A and B were admitted, so both must have real (successful) responses.
  EXPECT_NE(resp_a.find("\"ok\":true"), std::string::npos) << resp_a;
  EXPECT_NE(resp_b.find("\"ok\":true"), std::string::npos) << resp_b;
  EXPECT_EQ(server.service().scheduler().stats().rejected, 1);

  server.request_drain();
  server_thread.join();
}

}  // namespace
