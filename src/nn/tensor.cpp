#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

namespace graf::nn {
namespace {

// ---- Blocked GEMM microkernel (DESIGN.md §3.9) ------------------------------
//
// Register tile: up to kMR rows of A against a kNR-column strip of B
// (8 doubles = one AVX-512 / two AVX2 vectors). kKC bounds the k-panel per
// pass. Each tile *continues* the chain by loading C into its accumulators
// (C is zeroed before the first panel), so even K > kKC keeps every output
// element a single ascending-k accumulation chain.
//
// Determinism: every kernel variant — vectorized full-width tiles, masked
// or scalar edge tiles, packed or unpacked B — computes the exact same per-element
// chain acc = fma(a_ik, b_kj, acc) over ascending k (std::fma and the SIMD
// fmadd lanes are the same correctly-rounded IEEE operation). Nothing in
// the per-element arithmetic depends on M (row count), so batched K-row
// forwards are bitwise equal, row for row, to 1-row forwards, and results
// never depend on the thread count (the kernels are single-threaded).
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 8;
constexpr std::size_t kKC = 512;
// Pack B into contiguous kNR-wide panels only when the row count amortizes
// the copy. Packed and unpacked paths execute the same accumulation chain
// (only the addressing differs), so the cutoff cannot change results.
constexpr std::size_t kPackMinRows = 16;

std::vector<double>& pack_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

// The kb x kNR transposed-strip panel of matmul_nt_into; grow-only, so a
// steady-state caller never reallocates or zero-fills it.
std::vector<double>& nt_panel() {
  thread_local std::vector<double> buf;
  return buf;
}

// The tile epilogue of matmul_bias_into, applied once, after a tile's last
// k-panel: v = acc + bias[u], then v > 0 ? v : 0 when `relu` is set — the
// bits of matmul_into followed by bias_relu_into (or a row-broadcast add).
// A null bias (every plain product) stores the accumulators unchanged.
struct Epilogue {
  const double* bias = nullptr;  // the tile's first column
  bool relu = false;
};

inline double finish(double acc, const Epilogue& ep, std::size_t u) {
  if (ep.bias == nullptr) return acc;
  const double v = acc + ep.bias[u];
  return ep.relu ? (v > 0.0 ? v : 0.0) : v;
}

// C[0..h)[0..w) += A-rows * B-strip over kb ascending k, with the strip's
// (k, u) element at b[k * ldb + u]. Generic edge version; trip counts are
// runtime values. Accumulators seed from C so a later k-panel resumes the
// exact fma chain of the earlier ones.
inline void micro_tile(double* c, std::size_t ldc, const double* a,
                       std::size_t lda, const double* b, std::size_t ldb,
                       std::size_t kb, std::size_t h, std::size_t w,
                       const Epilogue& ep) {
  double acc[kMR][kNR] = {};
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t u = 0; u < w; ++u) acc[r][u] = c[r * ldc + u];
  for (std::size_t k = 0; k < kb; ++k) {
    for (std::size_t u = 0; u < w; ++u) {
      const double bv = b[k * ldb + u];
      for (std::size_t r = 0; r < h; ++r)
        acc[r][u] = std::fma(a[r * lda + k], bv, acc[r][u]);
    }
  }
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t u = 0; u < w; ++u) c[r * ldc + u] = finish(acc[r][u], ep, u);
}

// Full-width (w == kNR) tile over H <= kMR rows, register-resident
// accumulators. The ISA variants below are lane-for-lane the same fma chain
// as the scalar fallback.
#if defined(__AVX512F__)

// The ReLU epilogue keeps the lanes where v > 0 (an ordered compare, so NaN
// fails it) and zeroes the rest: v > 0 ? v : +0, lane for lane.
template <int H>
inline void micro_tile_w8(double* c, std::size_t ldc, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          std::size_t kb, const Epilogue& ep) {
  __m512d acc[H];
  for (int r = 0; r < H; ++r)
    acc[r] = _mm512_loadu_pd(c + static_cast<std::size_t>(r) * ldc);
  for (std::size_t k = 0; k < kb; ++k) {
    const __m512d bv = _mm512_loadu_pd(b + k * ldb);
    for (int r = 0; r < H; ++r)
      acc[r] = _mm512_fmadd_pd(_mm512_set1_pd(a[static_cast<std::size_t>(r) * lda + k]),
                               bv, acc[r]);
  }
  if (ep.bias != nullptr) {
    const __m512d bias = _mm512_loadu_pd(ep.bias);
    for (int r = 0; r < H; ++r) {
      acc[r] = _mm512_add_pd(acc[r], bias);
      if (ep.relu)
        acc[r] = _mm512_maskz_mov_pd(
            _mm512_cmp_pd_mask(acc[r], _mm512_setzero_pd(), _CMP_GT_OQ), acc[r]);
    }
  }
  for (int r = 0; r < H; ++r)
    _mm512_storeu_pd(c + static_cast<std::size_t>(r) * ldc, acc[r]);
}

// An edge strip of w < kNR columns read out of a row-major B (ldu == 1):
// the tile above on the low w lanes, with masked loads and stores. Lane u
// runs the generic edge tile's fma chain for column u; the masked-off
// lanes are never loaded from memory or stored.
template <int H>
inline void micro_tile_masked(double* c, std::size_t ldc, const double* a,
                              std::size_t lda, const double* b, std::size_t ldb,
                              std::size_t kb, std::size_t w, const Epilogue& ep) {
  const auto lanes = static_cast<__mmask8>((1u << w) - 1u);
  __m512d acc[H];
  for (int r = 0; r < H; ++r)
    acc[r] = _mm512_maskz_loadu_pd(lanes, c + static_cast<std::size_t>(r) * ldc);
  for (std::size_t k = 0; k < kb; ++k) {
    const __m512d bv = _mm512_maskz_loadu_pd(lanes, b + k * ldb);
    for (int r = 0; r < H; ++r)
      acc[r] = _mm512_fmadd_pd(_mm512_set1_pd(a[static_cast<std::size_t>(r) * lda + k]),
                               bv, acc[r]);
  }
  if (ep.bias != nullptr) {
    const __m512d bias = _mm512_maskz_loadu_pd(lanes, ep.bias);
    for (int r = 0; r < H; ++r) {
      acc[r] = _mm512_add_pd(acc[r], bias);
      if (ep.relu)
        acc[r] = _mm512_maskz_mov_pd(
            _mm512_cmp_pd_mask(acc[r], _mm512_setzero_pd(), _CMP_GT_OQ), acc[r]);
    }
  }
  for (int r = 0; r < H; ++r)
    _mm512_mask_storeu_pd(c + static_cast<std::size_t>(r) * ldc, lanes, acc[r]);
}

#elif defined(__AVX2__) && defined(__FMA__)

// ReLU epilogue as in the AVX-512 tier: the ordered v > 0 compare's
// all-ones lanes keep v, the rest become +0.
template <int H>
inline void micro_tile_w8(double* c, std::size_t ldc, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          std::size_t kb, const Epilogue& ep) {
  __m256d acc[H][2];
  for (int r = 0; r < H; ++r) {
    const double* crow = c + static_cast<std::size_t>(r) * ldc;
    acc[r][0] = _mm256_loadu_pd(crow);
    acc[r][1] = _mm256_loadu_pd(crow + 4);
  }
  for (std::size_t k = 0; k < kb; ++k) {
    const __m256d b0 = _mm256_loadu_pd(b + k * ldb);
    const __m256d b1 = _mm256_loadu_pd(b + k * ldb + 4);
    for (int r = 0; r < H; ++r) {
      const __m256d av = _mm256_set1_pd(a[static_cast<std::size_t>(r) * lda + k]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  if (ep.bias != nullptr) {
    const __m256d bias0 = _mm256_loadu_pd(ep.bias);
    const __m256d bias1 = _mm256_loadu_pd(ep.bias + 4);
    for (int r = 0; r < H; ++r) {
      acc[r][0] = _mm256_add_pd(acc[r][0], bias0);
      acc[r][1] = _mm256_add_pd(acc[r][1], bias1);
      if (ep.relu) {
        const __m256d zero = _mm256_setzero_pd();
        acc[r][0] = _mm256_and_pd(_mm256_cmp_pd(acc[r][0], zero, _CMP_GT_OQ), acc[r][0]);
        acc[r][1] = _mm256_and_pd(_mm256_cmp_pd(acc[r][1], zero, _CMP_GT_OQ), acc[r][1]);
      }
    }
  }
  for (int r = 0; r < H; ++r) {
    double* crow = c + static_cast<std::size_t>(r) * ldc;
    _mm256_storeu_pd(crow, acc[r][0]);
    _mm256_storeu_pd(crow + 4, acc[r][1]);
  }
}

#else

template <int H>
inline void micro_tile_w8(double* c, std::size_t ldc, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          std::size_t kb, const Epilogue& ep) {
  double acc[H][kNR];
  for (int r = 0; r < H; ++r)
    for (std::size_t u = 0; u < kNR; ++u)
      acc[r][u] = c[static_cast<std::size_t>(r) * ldc + u];
  for (std::size_t k = 0; k < kb; ++k) {
    const double* brow = b + k * ldb;
    for (int r = 0; r < H; ++r) {
      const double av = a[static_cast<std::size_t>(r) * lda + k];
      for (std::size_t u = 0; u < kNR; ++u)
        acc[r][u] = std::fma(av, brow[u], acc[r][u]);
    }
  }
  for (int r = 0; r < H; ++r)
    for (std::size_t u = 0; u < kNR; ++u)
      c[static_cast<std::size_t>(r) * ldc + u] = finish(acc[r][u], ep, u);
}

#endif

// Run f with a tile extent n (1..8: a row remainder h <= kMR or a column
// remainder w <= kNR) as a compile-time constant.
template <typename F>
inline void with_count(std::size_t n, F&& f) {
  switch (n) {
    case 8: f(std::integral_constant<int, 8>{}); break;
    case 7: f(std::integral_constant<int, 7>{}); break;
    case 6: f(std::integral_constant<int, 6>{}); break;
    case 5: f(std::integral_constant<int, 5>{}); break;
    case 4: f(std::integral_constant<int, 4>{}); break;
    case 3: f(std::integral_constant<int, 3>{}); break;
    case 2: f(std::integral_constant<int, 2>{}); break;
    default: f(std::integral_constant<int, 1>{}); break;
  }
}

inline void micro_tile_w8_h(double* c, std::size_t ldc, const double* a,
                            std::size_t lda, const double* b, std::size_t ldb,
                            std::size_t kb, std::size_t h, const Epilogue& ep) {
  with_count(h, [&](auto H) { micro_tile_w8<H>(c, ldc, a, lda, b, ldb, kb, ep); });
}

// A w < kNR wide tile of a row-major B strip: masked vector lanes where
// AVX-512 has them, the generic edge tile otherwise.
inline void edge_tile(double* c, std::size_t ldc, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, std::size_t kb, std::size_t h,
                      std::size_t w, const Epilogue& ep) {
#if defined(__AVX512F__)
  with_count(h, [&](auto H) { micro_tile_masked<H>(c, ldc, a, lda, b, ldb, kb, w, ep); });
#else
  micro_tile(c, ldc, a, lda, b, ldb, kb, h, w, ep);
#endif
}

// One w < kNR wide tail strip of A * B^T (A is M x K, B's rows K long) over
// a kb-deep k-panel: its w rows of B transposed into the panel, then every
// row tile on the edge tile. Out of line, so the full-strip loop of
// matmul_nt_into keeps its registers.
[[gnu::noinline]] void nt_tail_strip(double* c, std::size_t ldc, const double* a,
                                     const double* bstrip, std::size_t M, std::size_t K,
                                     std::size_t kb, std::size_t w, double* panel) {
  for (std::size_t k = 0; k < kb; ++k)
    for (std::size_t u = 0; u < w; ++u) panel[k * kNR + u] = bstrip[u * K + k];
  for (std::size_t i0 = 0; i0 < M; i0 += kMR)
    edge_tile(c + i0 * ldc, ldc, a + i0 * K, K, panel, kNR, kb, std::min(kMR, M - i0), w, {});
}

// ---- Weight-gradient tiles (matmul_tn_into) --------------------------------
//
// out = a^T * g over a row range: out(i, j) chains fma(a_ki, g_kj, acc) over
// ascending k and skips every k where a_ki == 0 (a is usually a ReLU- or
// dropout-masked activation). The vector tiers put kTnLanes output rows i in
// the lanes and keep one accumulator per output column j, up to kNR columns
// per tile. Per row k a tile does one load of a(k, i0..), one unordered != 0
// compare and, per column, one lane-masked fma: a lane whose a_ki is ±0
// keeps its accumulator untouched, even against a NaN or ±inf gradient, so
// each element runs exactly the scalar loop's chain. A NaN a_ki compares
// unequal to 0 and is multiplied in, as it is there.
#if defined(__AVX512F__)

constexpr std::size_t kTnLanes = 8;

template <int J>
inline void tn_tile(double* out, std::size_t ldo, const double* a, std::size_t lda,
                    const double* g, std::size_t ldg, std::size_t rows, std::size_t h) {
  const auto lanes = static_cast<__mmask8>((1u << h) - 1u);
  __m512d acc[J];
  for (int j = 0; j < J; ++j) acc[j] = _mm512_setzero_pd();
  for (std::size_t k = 0; k < rows; ++k) {
    const __m512d av = _mm512_maskz_loadu_pd(lanes, a + k * lda);
    const __mmask8 nz = _mm512_cmp_pd_mask(av, _mm512_setzero_pd(), _CMP_NEQ_UQ);
    const double* grow = g + k * ldg;
    for (int j = 0; j < J; ++j)
      acc[j] = _mm512_mask3_fmadd_pd(av, _mm512_set1_pd(grow[j]), acc[j], nz);
  }
  // Lane r of acc[j] is out(r, j): one masked scatter per column.
  const auto ld = static_cast<long long>(ldo);
  const __m512i rows_at = _mm512_setr_epi64(0, ld, 2 * ld, 3 * ld, 4 * ld, 5 * ld, 6 * ld, 7 * ld);
  for (int j = 0; j < J; ++j) _mm512_mask_i64scatter_pd(out + j, lanes, rows_at, acc[j], 8);
}

#elif defined(__AVX2__) && defined(__FMA__)

constexpr std::size_t kTnLanes = 4;

// As the AVX-512 tile, with the fma's result blended in under the compare's
// all-ones lanes, and the lanes past h masked off the load.
template <int J>
inline void tn_tile(double* out, std::size_t ldo, const double* a, std::size_t lda,
                    const double* g, std::size_t ldg, std::size_t rows, std::size_t h) {
  const __m256i lanes = _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(h)),
                                           _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc[J];
  for (int j = 0; j < J; ++j) acc[j] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < rows; ++k) {
    const __m256d av = _mm256_maskload_pd(a + k * lda, lanes);
    const __m256d nz = _mm256_cmp_pd(av, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    const double* grow = g + k * ldg;
    for (int j = 0; j < J; ++j)
      acc[j] = _mm256_blendv_pd(
          acc[j], _mm256_fmadd_pd(av, _mm256_set1_pd(grow[j]), acc[j]), nz);
  }
  alignas(32) double lane[kTnLanes];
  for (int j = 0; j < J; ++j) {
    _mm256_store_pd(lane, acc[j]);
    for (std::size_t r = 0; r < h; ++r) out[r * ldo + static_cast<std::size_t>(j)] = lane[r];
  }
}

#endif

// out = a * b, then the epilogue on every tile (bias == nullptr: none).
// B is read in place, or packed into kNR-wide panels when the row count
// amortizes the copy; both run the same chains.
void gemm_into(Tensor& out, const Tensor& a, const Tensor& b, const double* bias,
               bool relu) {
  if (a.cols() != b.rows()) throw std::invalid_argument{"matmul: inner dims differ"};
  const std::size_t M = a.rows();
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();
  out.resize_zero(M, N);
  const double* A = a.data();
  const double* B = b.data();
  double* C = out.data();
  const bool pack = M >= kPackMinRows && K * N >= 4 * kNR * kNR;
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    const bool last = k0 + kb == K;
    const double* bpanel = B + k0 * N;
    const double* packed = nullptr;
    if (pack) {
      auto& buf = pack_buffer();
      const std::size_t strips = (N + kNR - 1) / kNR;
      buf.assign(strips * kb * kNR, 0.0);
      for (std::size_t s = 0; s < strips; ++s) {
        const std::size_t j0 = s * kNR;
        const std::size_t w = std::min(kNR, N - j0);
        double* dst = buf.data() + s * kb * kNR;
        for (std::size_t k = 0; k < kb; ++k)
          for (std::size_t u = 0; u < w; ++u) dst[k * kNR + u] = bpanel[k * N + j0 + u];
      }
      packed = buf.data();
    }
    for (std::size_t j0 = 0; j0 < N; j0 += kNR) {
      const std::size_t w = std::min(kNR, N - j0);
      const double* bptr = pack ? packed + (j0 / kNR) * kb * kNR : bpanel + j0;
      const std::size_t ldb = pack ? kNR : N;
      const Epilogue ep = last && bias != nullptr ? Epilogue{bias + j0, relu} : Epilogue{};
      for (std::size_t i0 = 0; i0 < M; i0 += kMR) {
        const std::size_t h = std::min(kMR, M - i0);
        double* cptr = C + i0 * N + j0;
        const double* aptr = A + i0 * K + k0;
        if (w == kNR)
          micro_tile_w8_h(cptr, N, aptr, K, bptr, ldb, kb, h, ep);
        else
          edge_tile(cptr, N, aptr, K, bptr, ldb, kb, h, w, ep);
      }
    }
  }
}

}  // namespace

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_{rows}, cols_{cols}, data_(rows * cols, 0.0) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_{rows}, cols_{cols}, data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument{"Tensor: ragged initializer"};
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Tensor Tensor::scalar(double v) {
  Tensor t{1, 1};
  t(0, 0) = v;
  return t;
}

Tensor Tensor::row(const std::vector<double>& values) {
  Tensor t{1, values.size()};
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

double Tensor::item() const {
  if (size() != 1) throw std::logic_error{"Tensor::item: not a scalar"};
  return data_[0];
}

void Tensor::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::resize_zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Tensor::copy_from(const Tensor& o) {
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_.assign(o.data_.begin(), o.data_.end());
}

Tensor& Tensor::operator+=(const Tensor& o) {
  if (!same_shape(o)) throw std::invalid_argument{"Tensor +=: shape mismatch"};
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  if (!same_shape(o)) throw std::invalid_argument{"Tensor -=: shape mismatch"};
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Tensor::add_scaled(const Tensor& o, double s) {
  if (!same_shape(o)) throw std::invalid_argument{"Tensor::add_scaled: shape mismatch"};
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] = std::fma(s, o.data_[i], data_[i]);
}

double Tensor::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Tensor::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor operator+(Tensor&& a, const Tensor& b) {
  a += b;
  return std::move(a);
}

Tensor operator+(const Tensor& a, Tensor&& b) {
  b += a;
  return std::move(b);
}

Tensor operator+(Tensor&& a, Tensor&& b) {
  a += b;
  return std::move(a);
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor operator-(Tensor&& a, const Tensor& b) {
  a -= b;
  return std::move(a);
}

Tensor operator-(const Tensor& a, Tensor&& b) {
  if (!a.same_shape(b)) throw std::invalid_argument{"Tensor -: shape mismatch"};
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = a.data()[i] - b.data()[i];
  return std::move(b);
}

Tensor operator-(Tensor&& a, Tensor&& b) {
  a -= b;
  return std::move(a);
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument{"hadamard: shape mismatch"};
  Tensor out{a.rows(), a.cols()};
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Tensor operator*(const Tensor& a, double s) {
  Tensor out = a;
  out *= s;
  return out;
}

Tensor operator*(Tensor&& a, double s) {
  a *= s;
  return std::move(a);
}

Tensor operator*(double s, const Tensor& a) { return a * s; }

Tensor operator*(double s, Tensor&& a) {
  a *= s;
  return std::move(a);
}

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  gemm_into(out, a, b, nullptr, false);
}

void matmul_bias_into(Tensor& out, const Tensor& a, const Tensor& b,
                      const Tensor& bias, bool relu) {
  if (bias.rows() != 1 || bias.cols() != b.cols())
    throw std::invalid_argument{"matmul_bias: bias must be 1 x cols(b)"};
  if (a.cols() == 0) throw std::invalid_argument{"matmul_bias: empty inner dimension"};
  gemm_into(out, a, b, bias.data(), relu);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(out, a, b);
  return out;
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  matmul_tn_into(out, a, b, 0, a.rows());
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b,
                    std::size_t row0, std::size_t rows) {
  if (a.rows() != b.rows()) throw std::invalid_argument{"matmul_tn: dims differ"};
  if (row0 + rows > a.rows()) throw std::invalid_argument{"matmul_tn: row range"};
  const std::size_t M = a.cols();
  const std::size_t N = b.cols();
  out.resize_zero(M, N);
  const double* A = a.data() + row0 * M;
  const double* B = b.data() + row0 * N;
#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
  for (std::size_t i0 = 0; i0 < M; i0 += kTnLanes) {
    const std::size_t h = std::min(kTnLanes, M - i0);
    for (std::size_t j0 = 0; j0 < N; j0 += kNR) {
      with_count(std::min(kNR, N - j0), [&](auto J) {
        tn_tile<J>(out.data() + i0 * N + j0, N, A + i0, M, B + j0, N, rows, h);
      });
    }
  }
#else
  // k-outer streaming over both inputs' rows; out stays cache-resident
  // (weight-gradient shapes are small). Per element the k chain ascends.
  for (std::size_t k = 0; k < rows; ++k) {
    const double* arow = A + k * M;
    const double* brow = B + k * N;
    for (std::size_t i = 0; i < M; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out.data() + i * N;
      for (std::size_t j = 0; j < N; ++j) orow[j] = std::fma(aki, brow[j], orow[j]);
    }
  }
#endif
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_tn_into(out, a, b);
  return out;
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument{"matmul_nt: dims differ"};
  const std::size_t M = a.rows();
  const std::size_t K = a.cols();
  const std::size_t N = b.rows();
  out.resize_zero(M, N);
  const double* A = a.data();
  const double* B = b.data();
  double* C = out.data();
  // Column u of B^T is row u of B, so a kNR-wide strip of B^T is kNR rows
  // of B. Every strip is transposed into a kb x kNR panel: a full one runs
  // the vector tile, a w < kNR tail the edge tile (masked lanes under
  // AVX-512), exactly as gemm_into runs a packed B. Both run each element's
  // ascending-k fma chain, so the split cannot change results. The panel's
  // first w columns are overwritten before use and the tiles read no
  // others: no zero fill.
  auto& panel = nt_panel();
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    if (panel.size() < kb * kNR) panel.resize(kb * kNR);
    for (std::size_t j0 = 0; j0 < N; j0 += kNR) {
      const std::size_t w = std::min(kNR, N - j0);
      const double* bstrip = B + j0 * K + k0;
      if (w < kNR) {
        nt_tail_strip(C + j0, N, A + k0, bstrip, M, K, kb, w, panel.data());
        continue;
      }
      for (std::size_t k = 0; k < kb; ++k)
        for (std::size_t u = 0; u < kNR; ++u) panel[k * kNR + u] = bstrip[u * K + k];
      for (std::size_t i0 = 0; i0 < M; i0 += kMR) {
        const std::size_t h = std::min(kMR, M - i0);
        micro_tile_w8_h(C + i0 * N + j0, N, A + i0 * K + k0, K, panel.data(), kNR, kb, h, {});
      }
    }
  }
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_nt_into(out, a, b);
  return out;
}

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument{"matmul: inner dims differ"};
  Tensor out{a.rows(), b.cols()};
  // i-k-j order: streams over b's rows and out's rows (both row-major).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.data() + i * out.cols();
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] = std::fma(aik, brow[j], orow[j]);
    }
  }
  return out;
}

void bias_relu_into(Tensor& out, const Tensor& a, const Tensor& bias) {
  if (bias.rows() != 1 || bias.cols() != a.cols())
    throw std::invalid_argument{"bias_relu: bias must be 1 x cols(a)"};
  out.resize_zero(a.rows(), a.cols());
  const std::size_t cols = a.cols();
  const double* bp = bias.data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ap = a.data() + i * cols;
    double* op = out.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = ap[j] + bp[j];
      op[j] = v > 0.0 ? v : 0.0;
    }
  }
}

void col_sum_into(Tensor& out, const Tensor& g, std::size_t row0, std::size_t rows,
                  const Tensor* y) {
  if (row0 + rows > g.rows() || (y != nullptr && !y->same_shape(g)))
    throw std::invalid_argument{"col_sum: row range or shape mismatch"};
  const std::size_t N = g.cols();
  out.resize_zero(1, N);
  // Rows outer, columns inner: the compiler vectorizes the column loop, and
  // each column's sum still adds its rows in ascending order.
  double* __restrict o = out.data();
  for (std::size_t i = row0; i < row0 + rows; ++i) {
    const double* __restrict gr = g.data() + i * N;
    if (y == nullptr) {
      for (std::size_t j = 0; j < N; ++j) o[j] += gr[j];
    } else {
      const double* __restrict yr = y->data() + i * N;
      for (std::size_t j = 0; j < N; ++j) o[j] += yr[j] > 0.0 ? gr[j] : 0.0;
    }
  }
}

void relu_mask(Tensor& g, const Tensor& y) {
  if (!g.same_shape(y)) throw std::invalid_argument{"relu_mask: shape mismatch"};
  double* gp = g.data();
  const double* yp = y.data();
  for (std::size_t i = 0; i < g.size(); ++i) gp[i] = yp[i] > 0.0 ? gp[i] : 0.0;
}

Tensor transpose(const Tensor& a) {
  Tensor out{a.cols(), a.rows()};
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor(" << t.rows() << "x" << t.cols() << ")[";
  for (std::size_t i = 0; i < t.rows(); ++i) {
    os << (i == 0 ? "[" : ", [");
    for (std::size_t j = 0; j < t.cols(); ++j) {
      if (j > 0) os << ", ";
      os << t(i, j);
    }
    os << "]";
  }
  return os << "]";
}

}  // namespace graf::nn
