#include <algorithm>
#include <atomic>
#include <thread>

#include "util/quantiles.h"
#include "workloads.h"

namespace perfbench {

int NumClients() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

CallLog::CallLog(int clients, double seconds)
    : clients_(clients),
      slice_s_(seconds / kSlices),
      slots_(static_cast<size_t>(clients) * kSlices) {
  for (size_t i = 0; i < slots_.size(); ++i) slots_[i].rng = 0x9e3779b97f4a7c15ULL * (i + 1);
}

void CallLog::Add(int client, Clock::time_point t0, Clock::time_point t1) {
  const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  const double at = std::chrono::duration<double>(t1 - start_).count();
  const int slice = std::clamp(static_cast<int>(at / slice_s_), 0, kSlices - 1);
  Slot& s = slot(client, slice);
  ++s.calls;
  s.sum_us += us;
  if (s.kept.size() < kReservoir) {
    s.kept.push_back(us);
    return;
  }
  s.rng ^= s.rng << 13;
  s.rng ^= s.rng >> 7;
  s.rng ^= s.rng << 17;
  const uint64_t j = s.rng % s.calls;
  if (j < kReservoir) s.kept[j] = us;
}

uint64_t CallLog::calls() const {
  uint64_t n = 0;
  for (const Slot& s : slots_) n += s.calls;
  return n;
}

double CallLog::MeanMicros() const {
  double sum = 0.0;
  for (const Slot& s : slots_) sum += s.sum_us;
  return calls() == 0 ? 0.0 : sum / static_cast<double>(calls());
}

CallLog::Summary CallLog::Summarize() const {
  size_t kept = 0;
  for (const Slot& s : slots_) kept += s.kept.size();
  const int groups =
      static_cast<int>(std::clamp<size_t>(kept / kMinGroupSamples, 1, kSlices));
  std::vector<double> rates, p50s, p90s, p99s;
  Summary out;
  for (int g = 0; g < groups; ++g) {
    const int lo = g * kSlices / groups;
    const int hi = (g + 1) * kSlices / groups;
    std::vector<double> values;
    uint64_t calls = 0;
    for (int c = 0; c < clients_; ++c) {
      for (int sl = lo; sl < hi; ++sl) {
        const Slot& s = slots_[static_cast<size_t>(c) * kSlices + static_cast<size_t>(sl)];
        calls += s.calls;
        values.insert(values.end(), s.kept.begin(), s.kept.end());
      }
    }
    const Dist d = perfbench::Summarize(std::move(values));
    out.samples += d.count;
    rates.push_back(static_cast<double>(calls) / (slice_s_ * (hi - lo)));
    p50s.push_back(d.p50);
    p90s.push_back(d.p90);
    p99s.push_back(d.p99);
  }
  out.per_s = Median(rates);
  out.p50_us = Median(p50s);
  out.p90_us = Median(p90s);
  out.p99_us = Median(p99s);
  out.groups = groups;
  return out;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : uae::util::Quantile(std::move(values), 0.5);
}

double RunClosedLoop(int clients, double seconds, uint64_t limit, CallLog* log,
                     const std::function<void(int, uint64_t)>& step) {
  std::atomic<uint64_t> next{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point deadline = start + window;
      while (Clock::now() < deadline) {
        const uint64_t pos = next.fetch_add(1, std::memory_order_relaxed);
        if (pos >= limit) break;
        step(c, pos);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now();
  if (log != nullptr) log->Start(start);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void AddServeLayer(const uae::serve::EstimationService& service,
                   const CallLog* calls, double model_request_us, PassResult* result) {
  const uae::serve::ServiceStats stats = service.Stats();
  const uae::serve::LatencySnapshot queue = service.QueueLatency();
  const double requests = static_cast<double>(std::max<uint64_t>(1, stats.requests));
  auto& layer = result->layer;
  layer["serve.cache_hit_rate"] = static_cast<double>(stats.cache_hits) / requests;
  layer["serve.queue_wait_p50_us"] = queue.p50_us;
  layer["serve.queue_wait_p99_us"] = queue.p99_us;
  layer["serve.batch_size_mean"] =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(queue.count) / static_cast<double>(stats.batches);
  layer["serve.inline_requests"] = static_cast<double>(stats.inline_requests);
  if (calls != nullptr) {
    const double call_mean = calls->MeanMicros();
    const double queue_mean = queue.mean_us * static_cast<double>(queue.count) / requests;
    layer["serve.self_us_mean"] = call_mean - queue_mean - model_request_us / requests;
  }
  result->facts["serve.requests"] = static_cast<double>(stats.requests);
  result->facts["serve.queue_wait_samples"] = static_cast<double>(queue.count);
}

}  // namespace perfbench
