#include "core/wavefront.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "util/threadpool.h"

namespace uae::core {

namespace {

/// W ⊙ M, the same elementwise product MaskedMatMul forms on every call.
nn::Mat PreMask(const nn::MaskedLinear& layer) {
  const nn::Mat& w = layer.weight()->value();
  nn::Mat wm(w.rows(), w.cols());
  nn::MulElem(w, layer.mask(), &wm);
  return wm;
}

size_t MatBytes(const nn::Mat& m) { return m.size() * sizeof(float); }

}  // namespace

InferenceBackend::InferenceBackend(const MadeModel& model,
                                   const data::VirtualSchema* schema)
    : schema_(schema != nullptr ? schema : &model.schema()) {
  const int n_vc = model.num_vcols();
  encoders_.reserve(static_cast<size_t>(n_vc));
  offsets_.reserve(static_cast<size_t>(n_vc));
  widths_.reserve(static_cast<size_t>(n_vc));
  for (int vc = 0; vc < n_vc; ++vc) {
    encoders_.push_back(model.encoder(vc)->value());
    offsets_.push_back(input_width_);
    widths_.push_back(model.encoded_width(vc));
    input_width_ += model.encoded_width(vc);
  }
  b_in_ = model.input_layer().bias()->value();
  hidden_ = b_in_.cols();
  b1_.reserve(model.blocks().size());
  b2_.reserve(model.blocks().size());
  for (const auto& block : model.blocks()) {
    b1_.push_back(block.fc1().bias()->value());
    b2_.push_back(block.fc2().bias()->value());
  }
  head_b_.reserve(static_cast<size_t>(n_vc));
  for (int vc = 0; vc < n_vc; ++vc) head_b_.push_back(model.head(vc).bias()->value());
}

FrozenMadeBackend::FrozenMadeBackend(const MadeModel& model,
                                     const data::VirtualSchema* schema)
    : InferenceBackend(model, schema) {
  w_in_ = PreMask(model.input_layer());
  w1_.reserve(model.blocks().size());
  w2_.reserve(model.blocks().size());
  for (const auto& block : model.blocks()) {
    w1_.push_back(PreMask(block.fc1()));
    w2_.push_back(PreMask(block.fc2()));
  }
  head_w_.reserve(static_cast<size_t>(model.num_vcols()));
  for (int vc = 0; vc < model.num_vcols(); ++vc) {
    head_w_.push_back(PreMask(model.head(vc)));
  }
}

void FrozenMadeBackend::ForwardProbs(int vc, const nn::Mat& x,
                                     WavefrontWorkspace* ws) const {
  // Kernel-for-kernel replay of MadeModel::Trunk + HeadProbs (see layers.cc /
  // ops.cc): same GEMMs over the same pre-masked weights, same bias/relu
  // epilogues, same h + t residual order — hence bitwise-equal probs rows.
  const int m = x.rows();
  EnsureZeroed(&ws->h, m, hidden_);
  nn::GemmAccum(x, w_in_, &ws->h);
  nn::AddBiasRows(ws->h, b_in_, &ws->h);
  for (size_t blk = 0; blk < w1_.size(); ++blk) {
    EnsureShape(&ws->t0, m, hidden_);
    std::memcpy(ws->t0.data(), ws->h.data(), MatBytes(ws->h));
    nn::ReluInplace(&ws->t0);
    EnsureZeroed(&ws->t1, m, hidden_);
    nn::GemmAccum(ws->t0, w1_[blk], &ws->t1);
    nn::AddBiasReluRows(ws->t1, b1_[blk], &ws->t1);
    EnsureZeroed(&ws->t2, m, hidden_);
    nn::GemmAccum(ws->t1, w2_[blk], &ws->t2);
    nn::AddBiasRows(ws->t2, b2_[blk], &ws->t2);
    float* h = ws->h.data();
    const float* t = ws->t2.data();
    for (size_t i = 0; i < ws->h.size(); ++i) h[i] += t[i];
  }
  nn::ReluInplace(&ws->h);
  const nn::Mat& hw = head_w_[static_cast<size_t>(vc)];
  EnsureZeroed(&ws->probs, m, hw.cols());
  nn::GemmAccum(ws->h, hw, &ws->probs);
  nn::AddBiasRows(ws->probs, head_b_[static_cast<size_t>(vc)], &ws->probs);
  nn::SoftmaxRowsInplace(&ws->probs);
}

size_t FrozenMadeBackend::SizeBytes() const {
  size_t total = MatBytes(w_in_) + MatBytes(b_in_);
  for (const auto& m : encoders_) total += MatBytes(m);
  for (const auto& m : w1_) total += MatBytes(m);
  for (const auto& m : w2_) total += MatBytes(m);
  for (const auto& m : b1_) total += MatBytes(m);
  for (const auto& m : b2_) total += MatBytes(m);
  for (const auto& m : head_w_) total += MatBytes(m);
  for (const auto& m : head_b_) total += MatBytes(m);
  return total;
}

namespace {

/// Per-query lane state inside one wave.
struct LaneBlock {
  const QueryTargets* targets = nullptr;
  util::Rng* rng = nullptr;
  double* out = nullptr;
  std::vector<int> alive;              ///< Live lane ids, ascending.
  std::vector<double> p;               ///< Per-lane density products.
  std::vector<DigitRangeState> states;
  std::vector<int> lineage;            ///< Per-lane lineage id of its input row.
  int row0 = 0;                        ///< First row of this query in X.
};

/// Open-addressing map from (forwarded row, picked code) to the lineage id of
/// the child row that pick produces; emptied every column step.
class ChildLineage {
 public:
  /// Empties the map and sizes it for up to `max_keys` distinct keys.
  void Reset(size_t max_keys) {
    size_t cap = 16;
    while (cap < 2 * max_keys) cap <<= 1;
    slots_.assign(cap, Slot{});
    shift_ = 64 - std::countr_zero(cap);
  }

  /// Lineage id of the child of forwarded row `row` under `pick`; the first
  /// sight of a key takes `*next_id` and advances it.
  int Find(int row, int32_t pick, int* next_id) {
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(row)) << 32) |
                         static_cast<uint32_t>(pick);
    const size_t mask = slots_.size() - 1;
    for (size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id < 0) {
        slot.key = key;
        slot.id = (*next_id)++;
        return slot.id;
      }
      if (slot.key == key) return slot.id;
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    int id = -1;
  };
  std::vector<Slot> slots_;
  int shift_ = 60;
};

}  // namespace

std::vector<double> WavefrontSampleSelectivities(const InferenceBackend& backend,
                                                 std::span<const QueryTargets> targets,
                                                 std::span<util::Rng> rngs,
                                                 const WavefrontConfig& config) {
  const size_t n = targets.size();
  UAE_CHECK_EQ(rngs.size(), n);
  std::vector<double> out(n, 1.0);
  if (n == 0) return out;
  const int s = config.num_samples;
  UAE_CHECK_GT(s, 0);
  const size_t width = static_cast<size_t>(std::max(1, config.wave_width));
  const data::VirtualSchema& vs = backend.schema();
  const int n_vc = backend.num_vcols();
  const int iw = backend.input_width();
  for (const QueryTargets& t : targets) {
    UAE_CHECK_EQ(t.cols.size(), static_cast<size_t>(vs.num_original()));
  }

  // Wildcard prototype row: every vcol at its wildcard token. Lanes start
  // here and overwrite one column slice per sampled step, which reproduces
  // the per-query sampler's WildcardInput/EncodeHard input evolution.
  std::vector<float> proto(static_cast<size_t>(iw));
  for (int vc = 0; vc < n_vc; ++vc) {
    std::memcpy(proto.data() + backend.col_offset(vc),
                backend.EncoderRow(vc, vs.vcol(vc).domain),
                sizeof(float) * static_cast<size_t>(backend.col_width(vc)));
  }

  const size_t num_waves = (n + width - 1) / width;
  auto run_waves = [&](size_t w_lo, size_t w_hi) {
    WavefrontWorkspace ws;
    nn::Mat x_rows;  // Lane input rows for the wave, [wave_queries * s, iw].
    // Prefix-dedup scratch, hoisted across waves of this chunk.
    std::vector<const float*> unique_src;  // Forward row -> a lane row holding it.
    std::vector<int> fwd_lineage;          // Forward row -> its lineage id.
    std::vector<int> lane_row;             // Gathered lane -> its forward row.
    std::vector<int> row_of;               // Lineage id -> forward row, or -1.
    ChildLineage children;
    for (size_t w = w_lo; w < w_hi; ++w) {
      const size_t q0 = w * width;
      const size_t q1 = std::min(n, q0 + width);
      const int wq = static_cast<int>(q1 - q0);
      EnsureShape(&x_rows, wq * s, iw);
      for (int r = 0; r < x_rows.rows(); ++r) {
        std::memcpy(x_rows.row(r), proto.data(),
                    sizeof(float) * static_cast<size_t>(iw));
      }
      std::vector<LaneBlock> wave(static_cast<size_t>(wq));
      for (size_t q = q0; q < q1; ++q) {
        LaneBlock& b = wave[q - q0];
        b.targets = &targets[q];
        b.rng = &rngs[q];
        b.out = &out[q];
        b.alive.resize(static_cast<size_t>(s));
        std::iota(b.alive.begin(), b.alive.end(), 0);
        b.p.assign(static_cast<size_t>(s), 1.0);
        b.states.assign(static_cast<size_t>(s),
                        DigitRangeState(vs.num_original()));
        b.lineage.assign(static_cast<size_t>(s), 0);  // The prototype's id.
        b.row0 = static_cast<int>(q - q0) * s;
      }
      int next_lineage = 1;
      row_of.assign(1, -1);

      for (int vc = 0; vc < n_vc; ++vc) {
        const data::VirtualColumn& v = vs.vcol(vc);
        auto participates = [&](const LaneBlock& b) {
          // Wildcard skipping (§4.6) — plus early exit for fully-dead queries.
          return !b.targets->cols[static_cast<size_t>(v.orig_col)].IsWildcard() &&
                 !b.alive.empty();
        };
        int m = 0;
        for (const LaneBlock& b : wave) {
          if (participates(b)) m += static_cast<int>(b.alive.size());
        }
        if (m == 0) continue;

        // Gather live lanes (query order, lanes ascending), one forward row
        // per distinct lineage id across the whole wavefront: lanes with the
        // same id hold bitwise-equal input rows (see the header), MADE's
        // autoregressive masking makes the probs row a pure function of the
        // input row, and the kernels are row-deterministic, so those lanes
        // share one forward row with bitwise-equal results. This is where
        // the wavefront's throughput comes from: the batched forward runs
        // over unique prefixes, not raw lanes.
        unique_src.clear();
        fwd_lineage.clear();
        lane_row.clear();
        for (const LaneBlock& b : wave) {
          if (!participates(b)) continue;
          for (int lane : b.alive) {
            const int id = b.lineage[static_cast<size_t>(lane)];
            int& row = row_of[static_cast<size_t>(id)];
            if (row < 0) {
              row = static_cast<int>(unique_src.size());
              unique_src.push_back(x_rows.row(b.row0 + lane));
              fwd_lineage.push_back(id);
            }
            lane_row.push_back(row);
          }
        }
        const size_t row_bytes = sizeof(float) * static_cast<size_t>(iw);
        EnsureShape(&ws.x, static_cast<int>(unique_src.size()), iw);
        for (size_t u = 0; u < unique_src.size(); ++u) {
          std::memcpy(ws.x.row(static_cast<int>(u)), unique_src[u], row_bytes);
        }
        backend.ForwardProbs(vc, ws.x, &ws);

        // A surviving lane's new row is its forwarded row with this column's
        // slice set to the pick, so (forwarded row, pick) keys its lineage.
        children.Reset(static_cast<size_t>(m));
        size_t pos = 0;
        for (LaneBlock& b : wave) {
          if (!participates(b)) continue;
          const ColumnTarget& target =
              b.targets->cols[static_cast<size_t>(v.orig_col)];
          size_t keep = 0;
          for (size_t ai = 0; ai < b.alive.size(); ++ai) {
            const int lane = b.alive[ai];
            const int row = lane_row[pos++];
            LaneStep step =
                SampleLane(vs, vc, target, b.states[static_cast<size_t>(lane)],
                           ws.probs.row(row), b.rng);
            b.p[static_cast<size_t>(lane)] *= step.mass;
            if (step.mass <= 0.0) {
              // Zero-mass early exit: the lane leaves the wavefront.
              b.p[static_cast<size_t>(lane)] = 0.0;
              continue;
            }
            b.alive[keep++] = lane;
            if (v.num_subs > 1 && target.kind == ColumnTarget::Kind::kRange) {
              b.states[static_cast<size_t>(lane)].Advance(vs, vc, target.lo,
                                                          target.hi, step.pick);
            }
            b.lineage[static_cast<size_t>(lane)] =
                children.Find(row, step.pick, &next_lineage);
            std::memcpy(x_rows.row(b.row0 + lane) + backend.col_offset(vc),
                        backend.EncoderRow(vc, step.pick),
                        sizeof(float) * static_cast<size_t>(backend.col_width(vc)));
          }
          b.alive.resize(keep);
        }
        for (int id : fwd_lineage) row_of[static_cast<size_t>(id)] = -1;
        row_of.resize(static_cast<size_t>(next_lineage), -1);
      }

      for (LaneBlock& b : wave) {
        double total = 0.0;
        for (double pv : b.p) total += pv;
        *b.out = total / static_cast<double>(s);
      }
    }
  };

  if (num_waves > 1) {
    util::ParallelFor(0, num_waves, run_waves, /*min_parallel_size=*/1);
  } else {
    run_waves(0, num_waves);
  }
  return out;
}

}  // namespace uae::core
