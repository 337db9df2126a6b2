// util::PeriodicWorker, the poll thread under the adaptation, refresh and
// subplan-memo loops: idempotent Start/Stop (also from two threads at once),
// a prompt Stop however long the period, and no tick after Stop returns.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "util/periodic_worker.h"

namespace uae::util {
namespace {

using std::chrono::milliseconds;

/// Spins until `ticks` reaches `target` (or a generous deadline passes).
bool WaitForTicks(const std::atomic<int>& ticks, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ticks.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(PeriodicWorkerTest, TwoStartsGiveOneThread) {
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> ticks{0};
  PeriodicWorker worker(milliseconds(1), [&] {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    ++ticks;
  });
  worker.Start();
  worker.Start();
  EXPECT_TRUE(worker.running());
  ASSERT_TRUE(WaitForTicks(ticks, 5));
  EXPECT_TRUE(worker.Stop());
  EXPECT_FALSE(worker.running());
  EXPECT_EQ(threads.size(), 1u);
}

TEST(PeriodicWorkerTest, StopTwiceOrConcurrentlyIsSafe) {
  std::atomic<int> ticks{0};
  PeriodicWorker worker(milliseconds(1), [&] { ++ticks; });
  EXPECT_FALSE(worker.Stop());  // Never started.
  worker.Start();
  EXPECT_TRUE(worker.Stop());
  EXPECT_FALSE(worker.Stop());

  // Restartable, and two racing Stops stop it exactly once.
  for (int round = 0; round < 20; ++round) {
    worker.Start();
    std::atomic<int> stopped{0};
    std::thread a([&] { stopped += worker.Stop() ? 1 : 0; });
    std::thread b([&] { stopped += worker.Stop() ? 1 : 0; });
    a.join();
    b.join();
    EXPECT_EQ(stopped.load(), 1) << "round " << round;
    EXPECT_FALSE(worker.running());
  }
}

TEST(PeriodicWorkerTest, StopWithOneHourPeriodReturnsPromptly) {
  std::atomic<int> ticks{0};
  PeriodicWorker worker(std::chrono::hours(1), [&] { ++ticks; });
  worker.Start();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(worker.Stop());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(ticks.load(), 0);  // The first tick is a whole period away.
}

TEST(PeriodicWorkerTest, NoTickRunsAfterStopReturns) {
  std::atomic<bool> stopped{false};
  std::atomic<int> late{0};
  std::atomic<int> ticks{0};
  PeriodicWorker worker(milliseconds(0), [&] {
    if (stopped.load()) ++late;
    std::this_thread::sleep_for(milliseconds(1));  // Keep a tick in flight.
    if (stopped.load()) ++late;
    ++ticks;
  });
  for (int round = 0; round < 10; ++round) {
    stopped = false;
    const int before = ticks.load();
    worker.Start();
    ASSERT_TRUE(WaitForTicks(ticks, before + 2));
    // Racing Stops: whichever returns, no tick may still be running.
    std::thread other([&] {
      worker.Stop();
      stopped = true;
    });
    worker.Stop();
    stopped = true;
    other.join();
    const int at_stop = ticks.load();
    std::this_thread::sleep_for(milliseconds(5));
    EXPECT_EQ(ticks.load(), at_stop) << "round " << round;
  }
  EXPECT_EQ(late.load(), 0);
}

TEST(PeriodicWorkerTest, DestructorStops) {
  std::atomic<int> ticks{0};
  {
    PeriodicWorker worker(milliseconds(1), [&] { ++ticks; });
    worker.Start();
    ASSERT_TRUE(WaitForTicks(ticks, 2));
  }
  const int at_exit = ticks.load();
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(ticks.load(), at_exit);
}

}  // namespace
}  // namespace uae::util
