// parallel_for — every index runs exactly once at any worker count, an
// empty range runs nothing, a raised stop predicate ends further starts,
// and a task's exception reaches the caller after the workers join.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace explframe {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnceAtAnyWorkerCount) {
  constexpr std::size_t kTasks = 37;
  for (const std::uint32_t threads : {1u, 3u, std::uint32_t{kTasks + 5}}) {
    std::vector<std::atomic<int>> runs(kTasks);
    parallel_for(kTasks, threads,
                 [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " at " << threads
                                   << " thread(s)";
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> runs{0};
  std::atomic<int> polls{0};
  parallel_for(
      0, 4, [&](std::size_t) { runs.fetch_add(1); },
      [&] {
        polls.fetch_add(1);
        return false;
      });
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(polls.load(), 0);
}

TEST(ParallelFor, StopEndsFurtherStarts) {
  // Task 4 raises the stop; at one worker the claims are strictly
  // sequential, so nothing after it may start.
  constexpr std::size_t kTasks = 20;
  std::vector<int> runs(kTasks, 0);
  std::atomic<bool> stop{false};
  parallel_for(
      kTasks, 1,
      [&](std::size_t i) {
        ++runs[i];
        if (i == 4) stop.store(true);
      },
      [&] { return stop.load(); });
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(runs[i], i <= 4 ? 1 : 0) << "index " << i;

  // At several workers, tasks past 4 hold until the stop is raised, so
  // each other worker has claimed at most one of them by then — and none
  // may start afterwards.
  constexpr std::uint32_t kThreads = 3;
  std::vector<std::atomic<int>> wide(kTasks);
  stop.store(false);
  parallel_for(
      kTasks, kThreads,
      [&](std::size_t i) {
        wide[i].fetch_add(1);
        if (i == 4) stop.store(true);
        while (i > 4 && !stop.load()) std::this_thread::yield();
      },
      [&] { return stop.load(); });
  std::size_t started = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_LE(wide[i].load(), 1) << "index " << i;
    started += static_cast<std::size_t>(wide[i].load());
  }
  for (std::size_t i = 0; i <= 4; ++i) EXPECT_EQ(wide[i].load(), 1);
  EXPECT_LE(started, 5u + (kThreads - 1));
}

TEST(ParallelFor, TaskExceptionReachesTheCallerAndStopsStarts) {
  for (const std::uint32_t threads : {1u, 3u}) {
    constexpr std::size_t kTasks = 50;
    std::vector<std::atomic<int>> runs(kTasks);
    EXPECT_THROW(parallel_for(kTasks, threads,
                              [&](std::size_t i) {
                                runs[i].fetch_add(1);
                                if (i == 2) throw std::runtime_error("boom");
                              }),
                 std::runtime_error)
        << threads << " thread(s)";
    for (std::size_t i = 0; i < kTasks; ++i)
      EXPECT_LE(runs[i].load(), 1) << "index " << i;
    // One worker claims strictly in order: nothing after the throw starts.
    if (threads == 1) {
      for (std::size_t i = 3; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 0);
    }
  }
}

}  // namespace
}  // namespace explframe
