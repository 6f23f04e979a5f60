// Training pins: the exact bits a short fit leaves in the weights.
//
// Each pin covers the weights and the returned TrainHistory (every eval
// point's iteration, train and validation loss, and best_val_loss), so the
// loop's bookkeeping and best-validation restore are pinned with its steps.
// Every fit runs its backward on the autodiff tape, whose weight- and
// bias-gradient kernels (nn::matmul_tn_into, nn::col_sum_into) skip or mask
// zero activations. Dropout 0.25 puts dropout zeros and ReLU zeros on those
// paths in every step, so a kernel that added a zero activation's term, or
// reordered a chain, moves these digests. The fits are short and the models
// tiny: the portable build (GRAF_NATIVE=OFF) runs every std::fma as a library
// call and must reproduce the same values. Everything is a pure function of
// the seeds, so the digests hold at any GRAF_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gnn/latency_model.h"
#include "gnn/partitioned_model.h"
#include "gnn/surrogate_model.h"

namespace graf::gnn {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

/// a -> b, a -> c: a fan-out, so message passing has a node with two parents'
/// worth of rows to gather and one with none.
Dag fan_out() {
  Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_node("c");
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  return d;
}

/// M/M/1-style stage latencies summed over the three nodes.
Dataset dataset(std::size_t count, std::uint64_t seed) {
  const double demand[] = {15.0, 30.0, 25.0};
  Rng rng{seed};
  Dataset out;
  for (std::size_t s = 0; s < count; ++s) {
    Sample sample;
    const double w = rng.uniform(20.0, 90.0);
    double latency = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double q = rng.uniform(300.0, 2000.0);
      sample.workload.push_back(w);
      sample.quota.push_back(q);
      const double cores = q / 1000.0;
      const double utilization = std::min(w * demand[i] / (cores * 1000.0), 0.95);
      latency += demand[i] / std::min(cores, 1.0) / (1.0 - utilization);
    }
    sample.latency_ms = latency;
    out.push_back(std::move(sample));
  }
  return out;
}

/// Two 16-row shards per step and an eval point halfway, so select_best and
/// the shard-ordered reduction are on the pinned path too.
TrainConfig short_fit() {
  return {.iterations = 40, .batch_size = 32, .lr = 3e-3, .lr_decay_every = 20,
          .eval_every = 20, .seed = 5, .shard_rows = 16};
}

std::uint64_t weights_digest(const std::vector<nn::Tensor>& state) {
  std::uint64_t h = kFnvOffset;
  for (const nn::Tensor& t : state) {
    mix(h, static_cast<std::uint64_t>(t.rows()));
    mix(h, static_cast<std::uint64_t>(t.cols()));
    for (std::size_t i = 0; i < t.size(); ++i) mix(h, t.data()[i]);
  }
  return h;
}

std::uint64_t history_digest(const TrainHistory& hist) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < hist.iteration.size(); ++i) {
    mix(h, static_cast<std::uint64_t>(hist.iteration[i]));
    mix(h, hist.train_loss[i]);
    mix(h, hist.val_loss[i]);
  }
  mix(h, hist.best_val_loss);
  return h;
}

TEST(TrainPin, LatencyModelFitIsPinned) {
  // Widths 12 and 20 leave 4-wide tails beside the 8-wide tiles.
  LatencyModel lm{fan_out(),
                  {.node_features = 4, .embed_dim = 12, .mpnn_hidden = 12,
                   .readout_hidden = 20, .message_steps = 2, .dropout_p = 0.25,
                   .use_mpnn = true},
                  17};
  const TrainHistory hist = lm.fit(dataset(160, 1), dataset(32, 2), short_fit());
  EXPECT_EQ(weights_digest(lm.state_dict()), 512724812290142460ULL);
  ASSERT_EQ(hist.iteration.size(), 2u);
  EXPECT_EQ(history_digest(hist), 949762828262437300ULL);
}

TEST(TrainPin, SurrogateFitIsPinned) {
  SurrogateModel sm{3, {.hidden = 20, .hidden_layers = 2, .dropout_p = 0.25}, 19};
  sm.set_scalers({.w_scale = 0.01, .q_scale = 1e-3, .q_min_mc = 300.0,
                  .ratio_max = 0.3, .label_ref = 60.0});
  const TrainHistory hist = sm.fit(dataset(160, 3), dataset(32, 4), short_fit());
  EXPECT_EQ(SurrogateModel::fingerprint(sm), 12075563097694437996ULL);
  ASSERT_EQ(hist.iteration.size(), 2u);
  EXPECT_EQ(history_digest(hist), 133983741032975626ULL);
}

TEST(TrainPin, PartitionedFitIsPinned) {
  // Partitions {a, b} and {c}: one with a message edge, one without.
  PartitionedLatencyModel pm{fan_out(),
                             {.node_features = 4, .embed_dim = 12, .mpnn_hidden = 12,
                              .readout_hidden = 20, .message_steps = 2,
                              .dropout_p = 0.25, .use_mpnn = true},
                             2, 23};
  const Dataset val = dataset(32, 6);
  const TrainHistory hist = pm.fit(dataset(160, 5), val, short_fit());
  ASSERT_EQ(pm.partition_count(), 2u);
  ASSERT_EQ(hist.iteration.size(), 2u);
  EXPECT_EQ(history_digest(hist), 3982736493713450134ULL);
  // The weights are private: their bits reach every prediction.
  std::uint64_t h = kFnvOffset;
  for (const Sample& s : val) mix(h, pm.predict(s.workload, s.quota));
  EXPECT_EQ(h, 17459744301751322064ULL);
}

}  // namespace
}  // namespace graf::gnn
