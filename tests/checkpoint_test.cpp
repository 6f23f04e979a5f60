// Binary checkpoint format (src/serve/checkpoint.h): save -> load must
// reconstruct a model whose predictions are bit-identical to the original,
// and every corruption mode (truncation, flipped bits, wrong magic/version/
// endianness) must fail with a diagnostic CheckpointError — never a crash
// or a silently-wrong model.
#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "checkpoint_bytes.h"
#include "common/rng.h"
#include "gnn/latency_model.h"

namespace graf::serve {
namespace {

gnn::Dag chain(std::size_t n) {
  gnn::Dag d;
  for (std::size_t i = 0; i < n; ++i) d.add_node("svc" + std::to_string(i));
  for (std::size_t i = 0; i + 1 < n; ++i)
    d.add_edge(static_cast<int>(i), static_cast<int>(i + 1));
  return d;
}

gnn::Dag diamond() {
  gnn::Dag d;
  d.add_node("front");
  d.add_node("left");
  d.add_node("right");
  d.add_node("back");
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

gnn::Dataset random_dataset(std::size_t nodes, std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  gnn::Dataset out;
  for (std::size_t i = 0; i < count; ++i) {
    gnn::Sample s;
    for (std::size_t n = 0; n < nodes; ++n) {
      s.workload.push_back(rng.uniform(5.0, 120.0));
      s.quota.push_back(rng.uniform(200.0, 2500.0));
    }
    s.latency_ms = rng.uniform(20.0, 800.0);
    out.push_back(std::move(s));
  }
  return out;
}

/// A small trained model with non-trivial scalers and weights.
gnn::LatencyModel make_model(const gnn::Dag& dag, std::uint64_t seed,
                             bool use_mpnn = true) {
  gnn::MpnnConfig cfg{.node_features = 4, .embed_dim = 6, .mpnn_hidden = 6,
                      .readout_hidden = 12, .message_steps = 2, .dropout_p = 0.1,
                      .use_mpnn = use_mpnn};
  gnn::LatencyModel m{dag, cfg, seed};
  gnn::TrainConfig tcfg{.iterations = 60, .batch_size = 32, .lr = 2e-3,
                        .eval_every = 30, .seed = seed};
  m.fit(random_dataset(dag.node_count(), 128, seed + 1),
        random_dataset(dag.node_count(), 32, seed + 2), tcfg);
  return m;
}

CheckpointMeta meta_for(double sim_time) {
  return {.application = "test-app", .slo_ms = 150.0, .train_samples = 128,
          .val_error_pct = 7.5, .created_sim_time = sim_time};
}

std::string serialized(gnn::LatencyModel& m, const CheckpointMeta& meta) {
  std::ostringstream os{std::ios::binary};
  save_checkpoint(os, m, meta);
  return os.str();
}

LoadedCheckpoint parse(const std::string& bytes) {
  std::istringstream is{bytes, std::ios::binary};
  return load_checkpoint(is);
}

/// Bit-identical comparison of two doubles (EXPECT_EQ accepts -0.0 == 0.0;
/// the format stores raw IEEE-754 bytes, so we can demand full identity).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// --- Round-trip exactness ---------------------------------------------------

TEST(CheckpointRoundTrip, PredictionsBitIdenticalOnRandomModels) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gnn::Dag dag = (seed % 2 == 0) ? diamond() : chain(3 + seed % 3);
    gnn::LatencyModel original = make_model(dag, seed, /*use_mpnn=*/seed != 3);
    LoadedCheckpoint loaded = parse(serialized(original, meta_for(42.0)));

    Rng rng{seed * 977};
    for (int probe = 0; probe < 25; ++probe) {
      std::vector<double> w;
      std::vector<double> q;
      for (std::size_t n = 0; n < dag.node_count(); ++n) {
        w.push_back(rng.uniform(1.0, 200.0));
        q.push_back(rng.uniform(100.0, 3000.0));
      }
      const double a = original.predict(w, q);
      const double b = loaded.model.predict(w, q);
      EXPECT_TRUE(same_bits(a, b))
          << "seed " << seed << " probe " << probe << ": " << a << " vs " << b;
    }
  }
}

TEST(CheckpointRoundTrip, PreservesScalersGraphAndMeta) {
  gnn::LatencyModel original = make_model(diamond(), 11);
  LoadedCheckpoint loaded = parse(serialized(original, meta_for(123.5)));

  const gnn::ScalerState a = original.scalers();
  const gnn::ScalerState b = loaded.model.scalers();
  EXPECT_TRUE(same_bits(a.w_scale, b.w_scale));
  EXPECT_TRUE(same_bits(a.q_scale, b.q_scale));
  EXPECT_TRUE(same_bits(a.q_min_mc, b.q_min_mc));
  EXPECT_TRUE(same_bits(a.ratio_max, b.ratio_max));
  EXPECT_TRUE(same_bits(a.label_ref, b.label_ref));

  EXPECT_EQ(original.node_names(), loaded.model.node_names());
  EXPECT_EQ(original.graph_parents(), loaded.model.graph_parents());
  EXPECT_EQ(original.mpnn_config().embed_dim, loaded.model.mpnn_config().embed_dim);

  EXPECT_EQ(loaded.meta.application, "test-app");
  EXPECT_EQ(loaded.meta.slo_ms, 150.0);
  EXPECT_EQ(loaded.meta.train_samples, 128u);
  EXPECT_EQ(loaded.meta.val_error_pct, 7.5);
  EXPECT_EQ(loaded.meta.created_sim_time, 123.5);
}

TEST(CheckpointRoundTrip, SecondGenerationCopyIsStillIdentical) {
  // save -> load -> save must produce byte-identical files (no drift).
  gnn::LatencyModel original = make_model(chain(3), 5);
  const std::string first = serialized(original, meta_for(1.0));
  LoadedCheckpoint loaded = parse(first);
  const std::string second = serialized(loaded.model, meta_for(1.0));
  EXPECT_EQ(first, second);
}

TEST(CheckpointRoundTrip, FileRoundTrip) {
  gnn::LatencyModel original = make_model(chain(4), 21);
  const std::string path = ::testing::TempDir() + "/graf_roundtrip.grafck";
  save_checkpoint_file(path, original, meta_for(9.0));
  LoadedCheckpoint loaded = load_checkpoint_file(path);
  std::vector<double> w(4, 50.0);
  std::vector<double> q(4, 900.0);
  EXPECT_TRUE(same_bits(original.predict(w, q), loaded.model.predict(w, q)));
  std::remove(path.c_str());
}

TEST(CheckpointRoundTrip, LoadedModelRemainsTrainable) {
  gnn::LatencyModel original = make_model(chain(3), 8);
  LoadedCheckpoint loaded = parse(serialized(original, meta_for(0.0)));
  gnn::TrainConfig tcfg{.iterations = 30, .batch_size = 16, .lr = 1e-3,
                        .eval_every = 30, .seed = 4};
  EXPECT_NO_THROW(loaded.model.fit(random_dataset(3, 64, 77), {}, tcfg));
}

// --- Corruption and mismatch ------------------------------------------------

struct CorruptionFixture : ::testing::Test {
  static const std::string& bytes() {
    static const std::string b = [] {
      gnn::LatencyModel m = make_model(chain(3), 13);
      const CheckpointMeta meta = meta_for(7.0);
      return serialized(m, meta);
    }();
    return b;
  }
};

TEST_F(CorruptionFixture, TruncatedFileFailsCleanly) {
  // Cut at several depths: inside the header, inside the payload, and just
  // before the CRC.
  const std::size_t cuts[] = {0, 4, 11, 20, bytes().size() / 2, bytes().size() - 3};
  for (std::size_t cut : cuts) {
    EXPECT_THROW(parse(bytes().substr(0, cut)), CheckpointError) << "cut " << cut;
  }
}

TEST_F(CorruptionFixture, FlippedPayloadByteFailsCrc) {
  // Flip one byte at several payload offsets; the CRC must catch each.
  const std::size_t header = 8 + 4 + 4 + 8;
  for (std::size_t off : {header, header + 33, bytes().size() - 5}) {
    std::string corrupt = bytes();
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x40);
    try {
      parse(corrupt);
      FAIL() << "offset " << off << " accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find("CRC"), std::string::npos) << e.what();
    }
  }
}

TEST_F(CorruptionFixture, BadMagicRejected) {
  std::string corrupt = bytes();
  corrupt[0] = 'X';
  try {
    parse(corrupt);
    FAIL() << "bad magic accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("magic"), std::string::npos);
  }
}

TEST_F(CorruptionFixture, WrongFormatVersionRejected) {
  std::string corrupt = bytes();
  const std::uint32_t bogus = kCheckpointFormatVersion + 7;
  std::memcpy(corrupt.data() + 8, &bogus, sizeof bogus);
  try {
    parse(corrupt);
    FAIL() << "wrong version accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos);
  }
}

TEST_F(CorruptionFixture, ForeignEndiannessRejected) {
  std::string corrupt = bytes();
  // Byte-swap the endianness tag in place: reads as a foreign-endian file.
  std::swap(corrupt[12], corrupt[15]);
  std::swap(corrupt[13], corrupt[14]);
  try {
    parse(corrupt);
    FAIL() << "foreign endianness accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("endian"), std::string::npos);
  }
}

TEST_F(CorruptionFixture, NonFiniteScalerRejected) {
  // A CRC-valid file with a NaN w_scale used to load, and its predict()
  // returned 0 ms: every plan then looked feasible at the lower bounds.
  std::string corrupt = bytes();
  craft::poke(corrupt, craft::grafck_scalers_at(parse(bytes()).model),
              std::numeric_limits<double>::quiet_NaN());
  craft::reseal(corrupt);
  try {
    parse(corrupt);
    FAIL() << "NaN scaler accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("scalers"), std::string::npos) << e.what();
  }
}

TEST_F(CorruptionFixture, MissingFileFailsCleanly) {
  EXPECT_THROW(load_checkpoint_file("/nonexistent/nope.grafck"), CheckpointError);
}

TEST(CheckpointCrc, MatchesKnownVector) {
  // IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

// --- On-disk bytes ----------------------------------------------------------

// The round-trip tests above cannot see a field reordered in both the
// writer and the reader; this pin can. It saves a fixed seeded model
// with fixed metadata and checks the file's size and CRC-32 against the
// values the format has always produced. A mismatch means the bytes on
// disk changed: old checkpoints would no longer load as they were written.
struct FileStamp {
  std::size_t size;
  std::uint32_t crc;
  bool operator==(const FileStamp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FileStamp& s) {
  return os << "{" << s.size << ", 0x" << std::hex << s.crc << std::dec << "}";
}

FileStamp stamp(const std::string& bytes) {
  return {bytes.size(), crc32(bytes.data(), bytes.size())};
}

const gnn::ScalerState kPinnedScalers{.w_scale = 0.0125, .q_scale = 4e-4,
                                      .q_min_mc = 150.0, .ratio_max = 0.35,
                                      .label_ref = 180.0};

TEST(CheckpointBytes, LatencyModelFileIsPinned) {
  gnn::MpnnConfig cfg{.node_features = 4, .embed_dim = 5, .mpnn_hidden = 6,
                      .readout_hidden = 7, .message_steps = 2, .dropout_p = 0.25,
                      .use_mpnn = true};
  gnn::LatencyModel m{diamond(), cfg, 2024};
  m.set_scalers(kPinnedScalers);
  const CheckpointMeta meta{.application = "pinned-app", .slo_ms = 250.0,
                            .train_samples = 4096, .val_error_pct = 6.25,
                            .created_sim_time = 3600.5};
  EXPECT_EQ(stamp(serialized(m, meta)), (FileStamp{6449, 0x69136d87u}));
}

}  // namespace
}  // namespace graf::serve
