// The benchmark's workloads. Each one builds its inputs from the seed alone
// (the program under test only ever receives these generated inputs), sets
// the serving stack up, and runs closed-loop passes against it: every client
// sends its next request only after the previous one returned.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "serve/service.h"
#include "trace.h"

namespace perfbench {

/// The datasets, trained models and scored test sets are fixed, so the
/// accuracy metrics move only when the program's estimates move; --seed picks
/// what loads the system: request streams, query pools and the ingest stream.
inline constexpr uint64_t kDataSeed = 20210620;

/// Client-observed call latencies of one window, kept per time slice.
///
/// Every call is timed. Each (client, slice) keeps a uniform reservoir of its
/// latencies (a hot-cache client makes millions of calls per window), and
/// Summarize() reports medians over slices, so one scheduling stall moves a
/// single slice's quantiles rather than the reported value.
class CallLog {
 public:
  static constexpr int kSlices = 10;
  static constexpr size_t kReservoir = 1 << 15;
  static constexpr size_t kMinGroupSamples = 1000;  ///< >= 10 beyond a p99.

  CallLog(int clients, double seconds);
  /// Origin of the slices; called once, before any Add.
  void Start(Clock::time_point start) { start_ = start; }
  /// Records one call of `client` that ran from t0 to t1 (sliced by t1).
  void Add(int client, Clock::time_point t0, Clock::time_point t1);

  uint64_t calls() const;
  double MeanMicros() const;

  struct Summary {
    double per_s = 0.0;   ///< Median over groups of calls per second.
    double p50_us = 0.0;  ///< Median over groups of the group's p50.
    double p90_us = 0.0;  ///< ... of the group's p90.
    double p99_us = 0.0;  ///< ... of the group's p99.
    size_t samples = 0;   ///< Latencies kept over all groups.
    int groups = 0;
  };
  /// Adjacent slices are merged into as many groups as keep at least
  /// kMinGroupSamples latencies each (at most kSlices, at least one).
  Summary Summarize() const;

 private:
  struct Slot {
    uint64_t calls = 0;
    double sum_us = 0.0;
    uint64_t rng = 0;  ///< xorshift64 state for reservoir replacement.
    std::vector<double> kept;
  };
  Slot& slot(int client, int slice) {
    return slots_[static_cast<size_t>(client) * kSlices + static_cast<size_t>(slice)];
  }

  const int clients_;
  const double slice_s_;
  Clock::time_point start_;
  std::vector<Slot> slots_;
};

/// What one measured pass produced.
struct PassResult {
  Tally tally;
  double window_s = 0.0;        ///< Wall time of the measured window.
  double qps = 0.0;             ///< Served estimates completed per second.
  CallLog::Summary call;        ///< Client-observed call latencies.
  std::vector<double> qerrors;  ///< Q-errors of the scored estimates.
  double model_bytes = 0.0;     ///< ServableModel::SizeBytes of the served model.
  /// Per-layer metrics (traced pass only); absent ones are reported as 0.
  std::map<std::string, double> layer;
  /// Run facts recorded with the result (sizes, cache ratios, sample counts).
  std::map<std::string, double> facts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds table(s), trains the model(s) and starts the service, replacing
  /// the previous set-up. With a tracer, the served model is wrapped in a
  /// TimedServable. Returns the timed set-up seconds (ground-truth labeling
  /// and input generation are not part of it).
  virtual double Setup(Tracer* tracer) = 0;
  /// Runs one measured window of `seconds` against the current set-up and
  /// checks the outputs. With a tracer, also fills the per-layer metrics.
  virtual PassResult Pass(double seconds, Tracer* tracer) = 0;
};

std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed, bool hot);
std::unique_ptr<Workload> MakePlanWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeIngestWorkload(uint64_t seed);

// ---- Helpers shared by the workloads ---------------------------------------

/// Client threads of the closed loops: one per core.
int NumClients();

/// Runs `clients` closed-loop threads for `seconds`. Each calls
/// `step(client, position)` with globally increasing positions until the
/// deadline passes or `limit` positions were handed out; `log`, when given,
/// gets the window's start. Returns the window's wall time (start to the last
/// client's exit).
double RunClosedLoop(int clients, double seconds, uint64_t limit, CallLog* log,
                     const std::function<void(int, uint64_t)>& step);

double MicrosSince(Clock::time_point t0);
/// Median of a sample of finite values; 0 when empty.
double Median(std::vector<double> values);

/// Adds the serve-layer metrics of one traced pass from the service's own
/// counters (taken at the end of the window): cache hit rate, queue waits,
/// batch size, inline requests, and the service's own time per request --
/// client latency minus queue wait minus model time, all as means over the
/// requests. `model_request_us` is the model time summed over requests (a
/// batch's model span counted once per query it evaluated). The self time
/// is left out when `calls` is null (calls that are not single requests).
void AddServeLayer(const uae::serve::EstimationService& service,
                   const CallLog* calls, double model_request_us, PassResult* result);

}  // namespace perfbench
