// Seeded byte-mutation fuzzing of the .grafck checkpoint decoder. No
// external fuzzer: a valid file is mutated by fixed-seed streams — random
// byte flips, truncation, a forged header size, and payload mutations
// resealed with a fresh CRC so they reach the decoder (huge u64 fields,
// flipped sign and exponent bits) — plus hand-crafted files that once drove
// large allocations.
//
// Oracle, per load: it either returns a model whose every scaler and
// parameter is finite, or throws CheckpointError. Any other exception, a
// crash or a sanitizer report fails the run, and a rejected load may
// allocate at most 8x the file's size plus 1 MiB (counted by the global
// operator new below).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_bytes.h"
#include "common/rng.h"
#include "gnn/latency_model.h"
#include "serve/checkpoint.h"

std::atomic<std::uint64_t> g_alloc_bytes{0};

namespace graf::serve {
namespace {

bool finite(double v) { return std::isfinite(v); }

bool finite(const gnn::ScalerState& s) {
  return finite(s.w_scale) && finite(s.q_scale) && finite(s.q_min_mc) &&
         finite(s.ratio_max) && finite(s.label_ref);
}

bool finite(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i)
    if (!finite(t.data()[i])) return false;
  return true;
}

bool finite(const std::vector<nn::Tensor>& ts) {
  for (const nn::Tensor& t : ts)
    if (!finite(t)) return false;
  return true;
}

/// The format under test: a valid file and a loader that asserts the
/// loaded state is finite.
struct Format {
  std::string name;
  std::string file;
  std::function<void(std::istream&)> load_checked;
};

gnn::Dag diamond() {
  gnn::Dag d;
  for (const char* n : {"front", "left", "right", "back"}) d.add_node(n);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

const gnn::ScalerState kScalers{.w_scale = 0.0125, .q_scale = 4e-4,
                                .q_min_mc = 150.0, .ratio_max = 0.35,
                                .label_ref = 180.0};
const std::string kApp = "fuzz-app";

gnn::LatencyModel latency_model() {
  gnn::MpnnConfig cfg{.node_features = 4, .embed_dim = 5, .mpnn_hidden = 6,
                      .readout_hidden = 7, .message_steps = 2, .dropout_p = 0.25,
                      .use_mpnn = true};
  gnn::LatencyModel m{diamond(), cfg, 11};
  m.set_scalers(kScalers);
  return m;
}

Format grafck() {
  gnn::LatencyModel m = latency_model();
  std::ostringstream os;
  save_checkpoint(os, m, {.application = kApp, .slo_ms = 200.0});
  return {"grafck", os.str(), [](std::istream& is) {
            LoadedCheckpoint c = load_checkpoint(is);
            EXPECT_TRUE(finite(c.model.scalers()));
            EXPECT_TRUE(finite(c.model.state_dict()));
          }};
}

/// Load `bytes`, holding the oracle. Returns whether the load succeeded.
bool load(const Format& f, const std::string& bytes, const std::string& what) {
  std::istringstream is{bytes};
  const std::uint64_t before = g_alloc_bytes.load();
  try {
    f.load_checked(is);
    return true;
  } catch (const CheckpointError&) {
    const std::uint64_t used = g_alloc_bytes.load() - before;
    EXPECT_LE(used, 8 * bytes.size() + (std::uint64_t{1} << 20))
        << f.name << " " << what << ": a rejected load allocated " << used
        << " bytes for a " << bytes.size() << "-byte file";
  } catch (const std::exception& e) {
    ADD_FAILURE() << f.name << " " << what << ": escaped as a non-CheckpointError: "
                  << e.what();
  }
  return false;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n))) % n;
}

constexpr int kRounds = 1000;

// u64 values that stress size arithmetic: zero, one, around 2^31/2^32,
// huge, and the bit patterns of inf and NaN.
const std::uint64_t kHugeFields[] = {0,
                                     1,
                                     std::uint64_t{1} << 31,
                                     (std::uint64_t{1} << 32) + 1,
                                     std::uint64_t{1} << 40,
                                     std::uint64_t{1} << 62,
                                     std::numeric_limits<std::uint64_t>::max(),
                                     0x7ff0000000000000ULL,
                                     0x7ff8000000000000ULL};

TEST(CheckpointFuzz, ValidFilesLoad) {
  const Format f = grafck();
  EXPECT_TRUE(load(f, f.file, "unmutated"));
}

TEST(CheckpointFuzz, RandomByteFlips) {
  const Format f = grafck();
  Rng rng{101};
  for (int i = 0; i < kRounds; ++i) {
    std::string bytes = f.file;
    const int flips = 1 + static_cast<int>(pick(rng, 4));
    for (int k = 0; k < flips; ++k)
      bytes[pick(rng, bytes.size())] ^= static_cast<char>(1 + pick(rng, 255));
    load(f, bytes, "flip round " + std::to_string(i));
  }
}

TEST(CheckpointFuzz, Truncation) {
  const Format f = grafck();
  Rng rng{202};
  for (int i = 0; i < kRounds; ++i) {
    const std::size_t cut = pick(rng, f.file.size());
    EXPECT_FALSE(load(f, f.file.substr(0, cut), "cut at " + std::to_string(cut)));
  }
}

TEST(CheckpointFuzz, ForgedHeaderSize) {
  const Format f = grafck();
  const std::uint64_t real = f.file.size() - craft::kHeader - 4;
  std::vector<std::uint64_t> sizes(std::begin(kHugeFields), std::end(kHugeFields));
  for (std::uint64_t d : {1u, 4u, 8u, 64u}) {
    sizes.push_back(real + d);
    sizes.push_back(real - d);
  }
  for (std::uint64_t size : sizes) {
    std::string bytes = f.file;
    std::memcpy(bytes.data() + craft::kSizeField, &size, sizeof size);
    EXPECT_FALSE(load(f, bytes, "payload size " + std::to_string(size)));
  }
}

TEST(CheckpointFuzz, ResealedPayloadMutations) {
  const Format f = grafck();
  Rng rng{303};
  const std::size_t payload = f.file.size() - craft::kHeader - 4;
  for (int i = 0; i < 3 * kRounds; ++i) {
    std::string bytes = f.file;
    const std::size_t at = pick(rng, payload - 8);
    switch (i % 3) {
      case 0:  // random bytes
        for (int k = 0; k < 3; ++k) {
          const std::size_t byte = craft::kHeader + pick(rng, payload);
          bytes[byte] ^= static_cast<char>(1 + pick(rng, 255));
        }
        break;
      case 1:  // a huge or special u64
        craft::poke(bytes, at, kHugeFields[pick(rng, std::size(kHugeFields))]);
        break;
      default: {  // a double's sign or exponent bits
        const int bit = pick(rng, 2) == 0 ? 63 : 52 + static_cast<int>(pick(rng, 11));
        const std::uint64_t field = craft::peek<std::uint64_t>(bytes, at);
        craft::poke(bytes, at, field ^ (std::uint64_t{1} << bit));
      }
    }
    craft::reseal(bytes);
    load(f, bytes, "resealed round " + std::to_string(i));
  }
}

// --- crafted files -------------------------------------------------------------

TEST(CheckpointFuzz, HeaderClaimingHugePayloadFailsWithinBudget) {
  const Format f = grafck();
  std::string header = f.file.substr(0, craft::kHeader);
  const std::uint64_t claimed = std::uint64_t{256} << 20;
  std::memcpy(header.data() + craft::kSizeField, &claimed, sizeof claimed);
  EXPECT_FALSE(load(f, header, "24-byte header claiming 256 MiB"));
}

TEST(CheckpointFuzz, GrafckWideConfigRejectedBeforeConstruction) {
  const Format f = grafck();
  for (std::size_t field : {0u, 1u, 2u}) {
    std::string bytes = f.file;
    craft::poke(bytes, craft::kGrafckEmbedDim + 8 * field, std::uint64_t{2048});
    craft::reseal(bytes);
    EXPECT_FALSE(load(f, bytes, "2048-wide layer"));
  }
  std::string bytes = f.file;
  craft::poke(bytes, craft::kGrafckMessageSteps, std::uint64_t{1} << 40);
  craft::reseal(bytes);
  EXPECT_FALSE(load(f, bytes, "2^40 message steps"));
}

TEST(CheckpointFuzz, GrafckTensorShapesAndCountsBoundedByBytes) {
  const Format f = grafck();
  const gnn::LatencyModel m = latency_model();
  const std::size_t params = craft::grafck_params_at(m, kApp);
  ASSERT_EQ(craft::peek<std::uint64_t>(f.file, params),
            gnn::LatencyModel{m}.state_dict().size());
  {  // 2^20 tensors claimed
    std::string bytes = f.file;
    craft::poke(bytes, params, std::uint64_t{1} << 20);
    craft::reseal(bytes);
    EXPECT_FALSE(load(f, bytes, "2^20 tensors"));
  }
  {  // rows * cols wraps to 2^32 in u64
    std::string bytes = f.file;
    craft::poke(bytes, params + 8, std::uint64_t{1} << 32);
    craft::poke(bytes, params + 16, (std::uint64_t{1} << 32) + 1);
    craft::reseal(bytes);
    EXPECT_FALSE(load(f, bytes, "wrapping tensor shape"));
  }
}

TEST(CheckpointFuzz, NonFiniteStateRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Format f = grafck();
  std::string bytes = f.file;
  craft::poke(bytes, craft::grafck_scalers_at(latency_model()), nan);  // w_scale
  craft::reseal(bytes);
  EXPECT_FALSE(load(f, bytes, "NaN w_scale"));
  // meta.val_error_pct, the online trainer's drift baseline.
  bytes = f.file;
  craft::poke(bytes, craft::grafck_params_at(latency_model(), kApp) - 16, nan);
  craft::reseal(bytes);
  EXPECT_FALSE(load(f, bytes, "NaN validation error"));
}

}  // namespace
}  // namespace graf::serve

// ---- Global allocation accounting --------------------------------------------
//
// Every operator-new variant funnels through malloc and adds the requested
// size; every delete variant frees with free (the tests/autodiff_test.cpp
// idiom). A single request beyond 1 GiB is refused with bad_alloc instead
// of reaching malloc, so a decoder that regresses to allocating a claimed
// size fails the budget check above instead of aborting the sanitizer run.
namespace {
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

void* counted_alloc(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n > kRefuseAbove) return nullptr;
  return std::malloc(n > 0 ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n > kRefuseAbove) return nullptr;
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded > 0 ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
