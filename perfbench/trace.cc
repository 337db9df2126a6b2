#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "checks.h"
#include "core/targets.h"
#include "nn/kernels.h"
#include "util/json.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace perfbench {

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Named(const char* name) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  for (const Span& s : spans) {
    uae::util::JsonWriter w;
    w.BeginObject();
    w.Member("name", s.name);
    w.Member("id", static_cast<int64_t>(s.id));
    w.Member("parent", static_cast<int64_t>(s.parent));
    w.Member("start_ns", s.start_ns);
    w.Member("end_ns", s.end_ns);
    w.Member("items", s.items);
    w.Member("detail", s.detail);
    w.EndObject();
    const std::string& line = w.Finish();
    std::fwrite(line.data(), 1, line.size(), fp);
    std::fputc('\n', fp);
  }
  return std::fclose(fp) == 0;
}

SpanTotals Totals(std::span<const Span> spans) {
  SpanTotals t;
  for (const Span& s : spans) {
    t.micros += s.micros();
    t.items += s.items;
  }
  return t;
}

double SelfMicros(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t reach = parent.start_ns;  // End of the union so far.
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, reach);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, std::min(c.end_ns, parent.end_ns));
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - covered) / 1e3;
}

// ---- TimedServable ----------------------------------------------------------

TimedServable::TimedServable(
    std::shared_ptr<const uae::core::ServableModel> inner, Tracer* tracer,
    size_t max_recorded_queries)
    : inner_(std::move(inner)),
      tracer_(tracer),
      max_recorded_(max_recorded_queries) {}

double TimedServable::EstimateCard(const uae::workload::Query& query) const {
  return EstimateCards(std::span<const uae::workload::Query>(&query, 1))[0];
}

std::vector<double> TimedServable::EstimateCards(
    std::span<const uae::workload::Query> queries) const {
  std::vector<double> cards;
  {
    ScopedSpan span(tracer_, "core.estimate_cards",
                    static_cast<int64_t>(queries.size()));
    cards = inner_->EstimateCards(queries);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (recorded_ + queries.size() <= max_recorded_) {
    batches_.push_back({{queries.begin(), queries.end()}, cards});
    recorded_ += queries.size();
  }
  return cards;
}

double TimedServable::EstimateJoinCard(
    const uae::workload::JoinQuery& query) const {
  return EstimateJoinCards(std::span<const uae::workload::JoinQuery>(&query, 1))[0];
}

std::vector<double> TimedServable::EstimateJoinCards(
    std::span<const uae::workload::JoinQuery> queries) const {
  ScopedSpan span(tracer_, "core.estimate_join_cards",
                  static_cast<int64_t>(queries.size()));
  return inner_->EstimateJoinCards(queries);
}

std::vector<TimedServable::Batch> TimedServable::TakeBatches() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(batches_);
}

// ---- TimedCardProvider ------------------------------------------------------

double TimedCardProvider::Card(const uae::workload::JoinQuery& query,
                               uint32_t submask) {
  ScopedSpan span(tracer_, "optimizer.dp_card", 1);
  return inner_->Card(query, submask);
}

void TimedCardProvider::Prewarm(const uae::workload::JoinQuery& query,
                                std::span<const uint32_t> submasks) {
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer_, "optimizer.prewarm",
                    static_cast<int64_t>(submasks.size()));
    inner_->Prewarm(query, submasks);
  }
  last_prewarm_us_ = static_cast<double>(NowNs() - t0) / 1e3;
}

// ---- Wavefront replay -------------------------------------------------------

namespace {

/// Forwards to the model's frozen backend and records one nn.forward_probs
/// span per call (head index and forwarded row count included), parented to
/// the wavefront call in flight.
class TimedBackend final : public uae::core::InferenceBackend {
 public:
  TimedBackend(const uae::core::Uae& uae, Tracer* tracer)
      : InferenceBackend(uae.model(), &uae.schema()),
        inner_(uae.FrozenBackend()),
        tracer_(tracer) {}

  void ForwardProbs(int vc, const uae::nn::Mat& x,
                    uae::core::WavefrontWorkspace* ws) const override {
    Span span;
    span.name = "nn.forward_probs";
    span.id = tracer_->NextId();
    span.parent = parent_.load(std::memory_order_relaxed);
    span.items = x.rows();
    span.detail = vc;
    span.start_ns = NowNs();
    inner_->ForwardProbs(vc, x, ws);
    span.end_ns = NowNs();
    tracer_->Record(span);
  }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }

  void set_parent(uint64_t id) { parent_.store(id, std::memory_order_relaxed); }

 private:
  std::shared_ptr<const uae::core::FrozenMadeBackend> inner_;
  Tracer* tracer_;
  std::atomic<uint64_t> parent_{0};
};

/// Resizes `m` to rows x cols when needed (contents unspecified).
void Shape(uae::nn::Mat* m, int rows, int cols) {
  if (m->rows() != rows || m->cols() != cols) *m = uae::nn::Mat(rows, cols);
}

/// Times the recorded forward shapes through nn::GemmAccum and
/// nn::SoftmaxRowsInplace over synthetic operands: input rows are built from
/// the backend's own encoder rows (half the columns at random codes, half at
/// the wildcard token, so the input layer sees the sparsity it sees in
/// sampling); weights and hidden activations are random.
void ReplayKernels(const uae::core::InferenceBackend& backend,
                   const uae::core::UaeConfig& config,
                   std::span<const Span> forwards, ReplayProfile* profile) {
  const uae::data::VirtualSchema& vs = backend.schema();
  const int iw = backend.input_width();
  const int h = config.hidden;
  int max_m = 0;
  for (const Span& f : forwards) max_m = std::max<int>(max_m, static_cast<int>(f.items));
  if (max_m == 0) return;

  uae::util::Rng rng(config.seed);
  uae::nn::Mat x_all(max_m, iw);
  for (int r = 0; r < max_m; ++r) {
    for (int vc = 0; vc < backend.num_vcols(); ++vc) {
      const int32_t domain = vs.vcol(vc).domain;
      const int32_t code = rng.Bernoulli(0.5)
                               ? static_cast<int32_t>(rng.UniformInt(0, domain - 1))
                               : domain;
      std::memcpy(x_all.row(r) + backend.col_offset(vc), backend.EncoderRow(vc, code),
                  sizeof(float) * static_cast<size_t>(backend.col_width(vc)));
    }
  }
  uae::nn::Mat h_all = uae::nn::Mat::Uniform(max_m, h, 1.f, &rng);
  uae::nn::ReluInplace(&h_all);
  const uae::nn::Mat w_in = uae::nn::Mat::KaimingUniform(iw, h, &rng);
  const uae::nn::Mat w_hh = uae::nn::Mat::KaimingUniform(h, h, &rng);
  std::vector<uae::nn::Mat> heads;
  for (int vc = 0; vc < backend.num_vcols(); ++vc) {
    heads.push_back(uae::nn::Mat::KaimingUniform(h, vs.vcol(vc).domain, &rng));
  }

  uae::nn::Mat x, hid, out, probs;
  double gemm_ns = 0.0, softmax_ns = 0.0, flops = 0.0, bytes = 0.0;
  for (const Span& f : forwards) {
    const int m = static_cast<int>(f.items);
    const int vc = static_cast<int>(f.detail);
    const int dom = vs.vcol(vc).domain;
    Shape(&x, m, iw);
    std::memcpy(x.data(), x_all.data(), sizeof(float) * x.size());
    Shape(&hid, m, h);
    std::memcpy(hid.data(), h_all.data(), sizeof(float) * hid.size());

    Shape(&out, m, h);
    const int64_t t0 = NowNs();
    out.Zero();
    uae::nn::GemmAccum(x, w_in, &out);
    for (int b = 0; b < 2 * config.blocks; ++b) {
      out.Zero();
      uae::nn::GemmAccum(hid, w_hh, &out);
    }
    Shape(&probs, m, dom);
    probs.Zero();
    uae::nn::GemmAccum(hid, heads[static_cast<size_t>(vc)], &probs);
    const int64_t t1 = NowNs();
    uae::nn::SoftmaxRowsInplace(&probs);
    const int64_t t2 = NowNs();
    gemm_ns += static_cast<double>(t1 - t0);
    softmax_ns += static_cast<double>(t2 - t1);

    // Multiply-adds of the trunk (input layer + 2 GEMMs per residual block)
    // and the head, and the fp32 operand traffic of those GEMMs (A, B read;
    // C read and written) plus the softmax's read and write of the head.
    const double md = m, iwd = iw, hd = h, dd = dom;
    const double trunk_macs = md * iwd * hd + 2.0 * config.blocks * md * hd * hd;
    flops += 2.0 * (trunk_macs + md * hd * dd);
    const double gemm_floats = (md * iwd + iwd * hd + 2.0 * md * hd) +
                               2.0 * config.blocks * (md * hd + hd * hd + 2.0 * md * hd) +
                               (md * hd + hd * dd + 2.0 * md * dd);
    bytes += 4.0 * (gemm_floats + 2.0 * md * dd);
  }
  profile->gemm_us = gemm_ns / 1e3;
  profile->softmax_us = softmax_ns / 1e3;
  profile->forward_mflop = flops / 1e6;
  profile->forward_mbytes = bytes / 1e6;
}

}  // namespace

ReplayProfile ReplayWavefront(const uae::core::Uae& uae,
                              std::span<const TimedServable::Batch> batches,
                              Tracer* tracer) {
  ReplayProfile profile;
  TimedBackend backend(uae, tracer);
  const uae::core::UaeConfig& config = uae.config();
  uae::core::WavefrontConfig wc;
  wc.num_samples = config.ps_samples;
  wc.wave_width = std::max(1, config.wavefront_width);
  const double num_rows = static_cast<double>(uae.num_rows());

  std::vector<Span> forwards;
  for (const TimedServable::Batch& batch : batches) {
    std::vector<uae::core::QueryTargets> targets;
    std::vector<uae::util::Rng> rngs;
    for (const uae::workload::Query& q : batch.queries) {
      targets.push_back(uae::core::BuildTargets(q, *uae.table(), uae.schema()));
      // Uae::EstimationRng: seed x fingerprint mix, one stream per query.
      rngs.emplace_back(uae::util::SplitMix64(
          config.seed ^ uae::util::SplitMix64(q.Fingerprint())));
    }
    std::vector<double> sels;
    {
      ScopedSpan span(tracer, "core.wavefront",
                      static_cast<int64_t>(batch.queries.size()));
      backend.set_parent(span.id());
      sels = uae::core::WavefrontSampleSelectivities(backend, targets, rngs, wc);
    }
    for (size_t i = 0; i < sels.size(); ++i) {
      const double card = sels[i] * num_rows;
      if (!SameBits(card, batch.cards[i])) {
        if (profile.mismatches++ == 0) {
          profile.first_mismatch = "replayed " + std::to_string(card) +
                                   " != served " + std::to_string(batch.cards[i]);
        }
      }
    }
    profile.queries += batch.queries.size();
  }

  // Self time: each wavefront span minus the union of its forward spans.
  std::vector<Span> waves = tracer->Named("core.wavefront");
  std::vector<Span> all_forwards = tracer->Named("nn.forward_probs");
  for (const Span& w : waves) {
    std::vector<Span> children;
    for (const Span& f : all_forwards) {
      if (f.parent == w.id) children.push_back(f);
    }
    profile.wavefront_us += w.micros();
    profile.sampler_self_us += SelfMicros(w, children);
  }
  const SpanTotals fw = Totals(all_forwards);
  profile.forward_us = fw.micros;
  profile.forward_rows = fw.items;
  ReplayKernels(backend, config, all_forwards, &profile);
  return profile;
}

}  // namespace perfbench
