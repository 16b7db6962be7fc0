#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/bitvec.hpp"
#include "util/common.hpp"
#include "util/id_table.hpp"
#include "util/text.hpp"
#include "util/thread_pool.hpp"

namespace {

using mps::util::BitVec;

TEST(BitVec, ConstructionAndBasicOps) {
  BitVec v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.count(), 0u);
  v.set(3);
  v.set(9);
  EXPECT_TRUE(v.test(3));
  EXPECT_TRUE(v.test(9));
  EXPECT_FALSE(v.test(4));
  EXPECT_EQ(v.count(), 2u);
  v.reset(3);
  EXPECT_FALSE(v.test(3));
  v.flip(0);
  EXPECT_TRUE(v.test(0));
}

TEST(BitVec, AllOnesConstructionTrimsHighBits) {
  BitVec v(70, true);
  EXPECT_EQ(v.count(), 70u);
  BitVec w(70);
  w.set_all();
  EXPECT_EQ(v, w);
}

TEST(BitVec, PushBackGrows) {
  BitVec v;
  for (int i = 0; i < 130; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 130u);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(v.test(i), i % 3 == 0) << i;
}

TEST(BitVec, FindFirstAndNext) {
  BitVec v(200);
  EXPECT_EQ(v.find_first(), BitVec::npos);
  v.set(5);
  v.set(64);
  v.set(199);
  EXPECT_EQ(v.find_first(), 5u);
  EXPECT_EQ(v.find_next(5), 64u);
  EXPECT_EQ(v.find_next(64), 199u);
  EXPECT_EQ(v.find_next(199), BitVec::npos);
}

TEST(BitVec, AndNot) {
  BitVec a(10);
  a.set(1);
  a.set(2);
  BitVec b(10);
  b.set(2);
  a.and_not(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
}

TEST(BitVec, HashDistinguishesSizesAndContent) {
  BitVec a(64);
  BitVec b(64);
  EXPECT_EQ(a.hash(), b.hash());
  a.set(63);
  EXPECT_NE(a.hash(), b.hash());
  b.set(63);
  EXPECT_EQ(a, b);
  BitVec c(63);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(BitVec, ToString) {
  BitVec v(4);
  v.set(1);
  v.set(3);
  EXPECT_EQ(v.to_string(), "0101");
}

TEST(BitVec, ResizePreservesPrefixAndZeroesNewBits) {
  BitVec v(4, true);
  v.resize(8);
  EXPECT_EQ(v.to_string(), "11110000");
  v.resize(2);
  EXPECT_EQ(v.count(), 2u);
}

TEST(Rng, DeterministicAcrossInstances) {
  mps::util::Rng a(42);
  mps::util::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowIsInRange) {
  mps::util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval) {
  mps::util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Deadline, NeverAfterAtAndMin) {
  using mps::util::Deadline;
  const Deadline never;
  EXPECT_TRUE(never.never());
  EXPECT_FALSE(never.expired());
  EXPECT_EQ(never.poll_ms(), -1);
  // Non-positive, NaN and out-of-range budgets never expire: the clock
  // arithmetic must not overflow.
  for (double s : {0.0, -1.0, std::nan(""), 1e300}) EXPECT_TRUE(Deadline::after(s).never()) << s;

  const Deadline past = Deadline::at(Deadline::Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.poll_ms(), 0);
  const Deadline hour = Deadline::after(3600.0);
  EXPECT_FALSE(hour.expired());
  EXPECT_GT(hour.poll_ms(), 0);

  EXPECT_TRUE(never.min(past).expired());
  EXPECT_TRUE(hour.min(past).expired());
  EXPECT_TRUE(past.min(hour).expired());
  EXPECT_FALSE(hour.min(never).expired());
  EXPECT_TRUE(never.min(never).never());
}

TEST(Text, SplitWs) {
  const auto t = mps::util::split_ws("  a+  b-/1\tc ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a+");
  EXPECT_EQ(t[1], "b-/1");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(mps::util::split_ws("   ").empty());
}

TEST(Text, SplitOnKeepsEmptyFields) {
  const auto t = mps::util::split_on("a==b", '=');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(Text, Trim) {
  EXPECT_EQ(mps::util::trim("  x "), "x");
  EXPECT_EQ(mps::util::trim(""), "");
  EXPECT_EQ(mps::util::trim(" \t\n"), "");
}

TEST(Text, Format) { EXPECT_EQ(mps::util::format("%d-%s", 7, "x"), "7-x"); }

TEST(Text, Pad) {
  EXPECT_EQ(mps::util::pad("ab", 5), "ab   ");
  EXPECT_EQ(mps::util::pad("ab", -5), "   ab");
  EXPECT_EQ(mps::util::pad("abcdef", 3), "abcdef");
}

TEST(Errors, HierarchyAndMessages) {
  const mps::util::ParseError pe("bad token", 12);
  EXPECT_NE(std::string(pe.what()).find("line 12"), std::string::npos);
  EXPECT_EQ(pe.line(), 12);
  EXPECT_THROW(throw mps::util::SemanticsError("x"), mps::util::Error);
  EXPECT_THROW(throw mps::util::LimitError("y"), mps::util::Error);
}

TEST(IdTable, FindsEveryIdUnderCollidingHashes) {
  // Three hash values for 1000 keys: long probe runs that every growth
  // rehashes; only `same` tells the keys apart.
  mps::util::IdTable table;
  const auto key = [](std::uint32_t id) { return 7 * id + 1; };
  for (std::uint32_t id = 0; id < 1000; ++id) {
    const auto same = [&](std::uint32_t other) { return key(other) == key(id); };
    ASSERT_EQ(table.find(id % 3, same), mps::util::IdTable::kNone);
    table.insert(id % 3, id);
  }
  for (std::uint32_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(table.find(id % 3, [&](std::uint32_t other) { return key(other) == key(id); }), id);
  }
  EXPECT_EQ(table.find(1, [](std::uint32_t) { return false; }), mps::util::IdTable::kNone);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(mps::util::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    mps::util::ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ResultsLandInIndexedSlots) {
  mps::util::ThreadPool pool(4);
  std::vector<std::size_t> out(257);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  mps::util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 20; ++job) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, EmptyJobIsNoOp) {
  mps::util::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesException) {
  mps::util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 42) throw mps::util::LimitError("boom");
                                 }),
               mps::util::LimitError);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ExceptionAbandonsUnstartedIndices) {
  mps::util::ThreadPool pool(4);
  std::atomic<int> executed{0};
  const std::size_t n = 400;
  EXPECT_THROW(pool.parallel_for(n,
                                 [&](std::size_t i) {
                                   executed.fetch_add(1);
                                   if (i == 0) throw mps::util::Error("first task fails");
                                   std::this_thread::sleep_for(std::chrono::milliseconds(10));
                                 }),
               mps::util::Error);
  // Index 0 is always claimed by the caller (it holds the pool mutex when
  // the job is posted) and throws at once, which sets next_index_ to
  // job_size_.  Every other index takes 10 ms, so the three workers claim
  // a handful of indices at most before that; a pool that ignored the
  // abandon would run all n, for over a second.  Reaching n/2 would take
  // the caller being descheduled for ~0.7 s between its claim and its
  // catch, which a loaded machine does not do.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), static_cast<int>(n) / 2);
}

TEST(ThreadPool, SerialPathPropagatesAndAbandons) {
  mps::util::ThreadPool pool(1);  // no workers: the caller runs indices in order
  int executed = 0;
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ++executed;
                                   if (i == 3) throw mps::util::LimitError("stop");
                                 }),
               mps::util::LimitError);
  EXPECT_EQ(executed, 4);  // 0..3 ran; 4..99 abandoned
  // The serial pool is reusable after a throw, same as the threaded one.
  executed = 0;
  pool.parallel_for(5, [&](std::size_t) { ++executed; });
  EXPECT_EQ(executed, 5);
}

TEST(ThreadPool, SingleThreadRunsInOrder) {
  mps::util::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(16);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

}  // namespace
