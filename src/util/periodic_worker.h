// PeriodicWorker — one background thread that calls `tick` once per `period`
// until stopped. The autonomous loops (online::AdaptationController,
// ingest::RefreshController, optimizer::SubplanMemoRefresher) all poll on it.
//
// The thread waits one period before every tick. Start() and Stop() are
// idempotent and may be called from any thread (never from inside `tick`).
// Stop() wakes a waiting thread at once, lets an in-flight tick finish and
// joins, so `tick` never runs after any Stop() call has returned. The
// destructor stops the worker.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "util/common.h"

namespace uae::util {

class PeriodicWorker {
 public:
  PeriodicWorker(std::chrono::milliseconds period, std::function<void()> tick)
      : period_(period), tick_(std::move(tick)) {
    UAE_CHECK(tick_ != nullptr);
  }
  ~PeriodicWorker() { Stop(); }
  UAE_DISALLOW_COPY(PeriodicWorker);

  void Start() {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_.joinable()) return;
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }

  /// Returns true iff this call stopped a running thread.
  bool Stop() {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    std::thread thread;
    {
      // Moved out under the lock: running() turns false at once and never
      // waits on the join below.
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      thread = std::move(thread_);
    }
    cv_.notify_all();
    if (!thread.joinable()) return false;
    thread.join();
    return true;
  }

  bool running() const {
    std::lock_guard<std::mutex> lock(mu_);
    return thread_.joinable();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      lock.unlock();
      tick_();
      lock.lock();
    }
  }

  const std::chrono::milliseconds period_;
  const std::function<void()> tick_;
  /// Serializes Start/Stop, so a Stop never returns while another joins and
  /// a Start never revives the flag of a thread still shutting down.
  std::mutex lifecycle_mu_;
  mutable std::mutex mu_;  ///< Guards stop_ and thread_; never held by a tick.
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace uae::util
