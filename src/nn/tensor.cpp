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
// Register tile: H rows of A against S column strips of B, each strip kNR
// columns wide (8 doubles = one AVX-512 / two AVX2 vectors) and the last
// one w <= kNR wide. kKC bounds the k-panel per pass. A tile's first panel
// starts its accumulators at +0; a later panel (K > kKC) *continues* the
// chain by loading C, so every output element is a single ascending-k
// accumulation chain and `out` needs no zero fill.
//
// Determinism: every kernel variant — any H x S tile, masked or scalar edge
// strips, packed or unpacked B — computes the exact same per-element chain
// acc = fma(a_ik, b_kj, acc) over ascending k from +0 (std::fma and the
// SIMD fmadd lanes are the same correctly-rounded IEEE operation). Nothing
// in the per-element arithmetic depends on M (row count) or on the tile
// shape, so batched K-row forwards are bitwise equal, row for row, to 1-row
// forwards, and results never depend on the thread count (the kernels are
// single-threaded).
constexpr std::size_t kNR = 8;
constexpr std::size_t kKC = 512;
// Tile shapes (tile_shape below): a single-strip product runs tiles of up
// to kMaxRows rows, a wider one up to kMaxAcc accumulators over at most
// kMaxStrips strips at once. The AVX2 and scalar tiers keep one strip of up
// to 8 rows.
#if defined(__AVX512F__)
constexpr std::size_t kMaxRows = 16;
constexpr std::size_t kMaxStrips = 4;
constexpr std::size_t kMaxAcc = 24;
#else
constexpr std::size_t kMaxRows = 8;
constexpr std::size_t kMaxStrips = 1;
constexpr std::size_t kMaxAcc = 8;
#endif
// The most rows a tile of s strips takes.
constexpr std::size_t max_rows(std::size_t s) { return s == 1 ? kMaxRows : kMaxAcc / s; }
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

// The operands of one tile: C, A and B at the tile's first row and column,
// B's (k, u) element of strip s at b[s * bs + k * ldb + u], kb ascending k,
// and the last strip w columns wide. `resume` loads C into the accumulators
// (a later k-panel); otherwise they start at +0.
struct TileArgs {
  double* c;
  std::size_t ldc;
  const double* a;
  std::size_t lda;
  const double* b;
  std::size_t ldb, bs, kb, w;
  bool resume;
  Epilogue ep;
};

// Generic scalar tile over runtime h <= kMaxRows rows and w <= kNR columns
// of one strip: the edge tile of the AVX2 and scalar tiers.
inline void micro_tile(const TileArgs& t, std::size_t h) {
  double acc[kMaxRows][kNR] = {};
  if (t.resume)
    for (std::size_t r = 0; r < h; ++r)
      for (std::size_t u = 0; u < t.w; ++u) acc[r][u] = t.c[r * t.ldc + u];
  for (std::size_t k = 0; k < t.kb; ++k) {
    for (std::size_t u = 0; u < t.w; ++u) {
      const double bv = t.b[k * t.ldb + u];
      for (std::size_t r = 0; r < h; ++r)
        acc[r][u] = std::fma(t.a[r * t.lda + k], bv, acc[r][u]);
    }
  }
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t u = 0; u < t.w; ++u) t.c[r * t.ldc + u] = finish(acc[r][u], t.ep, u);
}

#if defined(__AVX512F__)

// H x S register-resident accumulators, one vector per row and strip. With
// `Tail` the last strip's loads and stores are masked to its w < kNR lanes,
// and the lanes past w are never loaded from memory or stored (a full strip
// keeps plain loads: a masked load in the k loop costs far more than an fma
// here). The ReLU epilogue keeps the lanes where v > 0 (an ordered compare,
// so NaN fails it) and zeroes the rest: v > 0 ? v : +0, lane for lane.
template <int H, int S, bool Tail>
inline void tile(const TileArgs& t) {
  const auto tail = static_cast<__mmask8>((1u << t.w) - 1u);
  const auto load = [&](int s, const double* p) {
    return Tail && s + 1 == S ? _mm512_maskz_loadu_pd(tail, p) : _mm512_loadu_pd(p);
  };
  const auto at = [](std::size_t r, std::size_t ld, int s) {
    return r * ld + static_cast<std::size_t>(s) * kNR;
  };
  __m512d acc[H][S];
  for (int r = 0; r < H; ++r)
    for (int s = 0; s < S; ++s)
      acc[r][s] = t.resume ? load(s, t.c + at(r, t.ldc, s)) : _mm512_setzero_pd();
  for (std::size_t k = 0; k < t.kb; ++k) {
    __m512d bv[S];
    for (int s = 0; s < S; ++s) bv[s] = load(s, t.b + static_cast<std::size_t>(s) * t.bs + k * t.ldb);
    for (int r = 0; r < H; ++r) {
      const __m512d av = _mm512_set1_pd(t.a[static_cast<std::size_t>(r) * t.lda + k]);
      for (int s = 0; s < S; ++s) acc[r][s] = _mm512_fmadd_pd(av, bv[s], acc[r][s]);
    }
  }
  if (t.ep.bias != nullptr) {
    for (int s = 0; s < S; ++s) {
      const __m512d bias = load(s, t.ep.bias + at(0, 0, s));
      for (int r = 0; r < H; ++r) {
        acc[r][s] = _mm512_add_pd(acc[r][s], bias);
        if (t.ep.relu)
          acc[r][s] = _mm512_maskz_mov_pd(
              _mm512_cmp_pd_mask(acc[r][s], _mm512_setzero_pd(), _CMP_GT_OQ), acc[r][s]);
      }
    }
  }
  for (int r = 0; r < H; ++r)
    for (int s = 0; s < S; ++s) {
      double* cp = t.c + at(r, t.ldc, s);
      if (Tail && s + 1 == S)
        _mm512_mask_storeu_pd(cp, tail, acc[r][s]);
      else
        _mm512_storeu_pd(cp, acc[r][s]);
    }
}

template <int H, int S>
inline void tile(const TileArgs& t) {
  if (t.w < kNR)
    tile<H, S, true>(t);
  else
    tile<H, S, false>(t);
}

#elif defined(__AVX2__) && defined(__FMA__)

// One full-width strip (w == kNR) over H <= 8 rows; edge strips take the
// generic tile. ReLU epilogue as in the AVX-512 tier: the ordered v > 0
// compare's all-ones lanes keep v, the rest become +0.
template <int H, int S>
inline void tile(const TileArgs& t) {
  static_assert(S == 1);
  if (t.w < kNR) return micro_tile(t, H);
  __m256d acc[H][2];
  for (int r = 0; r < H; ++r) {
    const double* crow = t.c + static_cast<std::size_t>(r) * t.ldc;
    acc[r][0] = t.resume ? _mm256_loadu_pd(crow) : _mm256_setzero_pd();
    acc[r][1] = t.resume ? _mm256_loadu_pd(crow + 4) : _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < t.kb; ++k) {
    const __m256d b0 = _mm256_loadu_pd(t.b + k * t.ldb);
    const __m256d b1 = _mm256_loadu_pd(t.b + k * t.ldb + 4);
    for (int r = 0; r < H; ++r) {
      const __m256d av = _mm256_set1_pd(t.a[static_cast<std::size_t>(r) * t.lda + k]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  if (t.ep.bias != nullptr) {
    const __m256d bias0 = _mm256_loadu_pd(t.ep.bias);
    const __m256d bias1 = _mm256_loadu_pd(t.ep.bias + 4);
    for (int r = 0; r < H; ++r) {
      acc[r][0] = _mm256_add_pd(acc[r][0], bias0);
      acc[r][1] = _mm256_add_pd(acc[r][1], bias1);
      if (t.ep.relu) {
        const __m256d zero = _mm256_setzero_pd();
        acc[r][0] = _mm256_and_pd(_mm256_cmp_pd(acc[r][0], zero, _CMP_GT_OQ), acc[r][0]);
        acc[r][1] = _mm256_and_pd(_mm256_cmp_pd(acc[r][1], zero, _CMP_GT_OQ), acc[r][1]);
      }
    }
  }
  for (int r = 0; r < H; ++r) {
    double* crow = t.c + static_cast<std::size_t>(r) * t.ldc;
    _mm256_storeu_pd(crow, acc[r][0]);
    _mm256_storeu_pd(crow + 4, acc[r][1]);
  }
}

#else

template <int H, int S>
inline void tile(const TileArgs& t) {
  static_assert(S == 1);
  if (t.w < kNR) return micro_tile(t, H);
  double acc[H][kNR] = {};
  if (t.resume)
    for (int r = 0; r < H; ++r)
      for (std::size_t u = 0; u < kNR; ++u)
        acc[r][u] = t.c[static_cast<std::size_t>(r) * t.ldc + u];
  for (std::size_t k = 0; k < t.kb; ++k) {
    const double* brow = t.b + k * t.ldb;
    for (int r = 0; r < H; ++r) {
      const double av = t.a[static_cast<std::size_t>(r) * t.lda + k];
      for (std::size_t u = 0; u < kNR; ++u)
        acc[r][u] = std::fma(av, brow[u], acc[r][u]);
    }
  }
  for (int r = 0; r < H; ++r)
    for (std::size_t u = 0; u < kNR; ++u)
      t.c[static_cast<std::size_t>(r) * t.ldc + u] = finish(acc[r][u], t.ep, u);
}

#endif

// Run f with n (1..Max) as a compile-time constant.
template <std::size_t Max, typename F>
inline void with_count(std::size_t n, F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (void)((n == I + 1 && (f(std::integral_constant<int, I + 1>{}), true)) || ...);
  }(std::make_index_sequence<Max>{});
}

// Rows per tile and strips per tile for an N-column product: a single strip
// (every MPNN layer of a small model) runs tall tiles, so no short tile is
// left bound by fma latency; a wider product runs up to kMaxStrips strips
// per pass over A (all of a few-row readout's columns at once).
struct TileShape {
  std::size_t rows, strips;
};

TileShape tile_shape(std::size_t N) {
  const std::size_t s = std::min(kMaxStrips, (N + kNR - 1) / kNR);
  return {max_rows(s), s};
}

// Every tile of one k-panel of a column group of s strips starting at t's
// first row and column: M rows in `tiles` tiles of near-equal height, the
// taller ones first.
void row_tiles(TileArgs t, std::size_t M, std::size_t tiles, std::size_t s) {
  with_count<kMaxStrips>(s, [&](auto S) {
    for (std::size_t i = 0, i0 = 0; i < tiles; ++i) {
      const std::size_t left = tiles - i;
      const std::size_t h = left == 1 ? M - i0 : (M - i0 + left - 1) / left;
      TileArgs ti = t;
      ti.c += i0 * t.ldc;
      ti.a += i0 * t.lda;
      with_count<max_rows(S)>(h, [&](auto H) { tile<H, S>(ti); });
      i0 += h;
    }
  });
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
  if (K == 0) {  // no k-panel: the empty sum
    out.resize_zero(M, N);
    return;
  }
  out.resize_for_overwrite(M, N);
  const double* A = a.data();
  const double* B = b.data();
  double* C = out.data();
  const bool pack = M >= kPackMinRows && K * N >= 4 * kNR * kNR;
  const TileShape shape = tile_shape(N);
  const std::size_t tiles = (M + shape.rows - 1) / shape.rows;
  const std::size_t strips = (N + kNR - 1) / kNR;
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    const bool last = k0 + kb == K;
    const double* bpanel = B + k0 * N;
    const double* packed = nullptr;
    if (pack) {
      auto& buf = pack_buffer();
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
    for (std::size_t s0 = 0; s0 < strips; s0 += shape.strips) {
      const std::size_t j0 = s0 * kNR;
      const std::size_t s = std::min(shape.strips, strips - s0);
      const Epilogue ep = last && bias != nullptr ? Epilogue{bias + j0, relu} : Epilogue{};
      const TileArgs t{.c = C + j0, .ldc = N, .a = A + k0, .lda = K,
                       .b = pack ? packed + s0 * kb * kNR : bpanel + j0,
                       .ldb = pack ? kNR : N, .bs = pack ? kb * kNR : kNR, .kb = kb,
                       .w = std::min(kNR, N - j0 - (s - 1) * kNR), .resume = k0 > 0, .ep = ep};
      row_tiles(t, M, tiles, s);
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

void Tensor::resize_for_overwrite(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
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
      with_count<kNR>(std::min(kNR, N - j0), [&](auto J) {
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
  if (K == 0) {
    out.resize_zero(M, N);
    return;
  }
  out.resize_for_overwrite(M, N);
  const double* A = a.data();
  const double* B = b.data();
  double* C = out.data();
  // Column u of B^T is row u of B, so a kNR-wide strip of B^T is kNR rows
  // of B. Every strip is transposed into a kb x kNR panel and runs the
  // single-strip row tiles, a w < kNR tail on masked lanes under AVX-512,
  // exactly as gemm_into runs a packed B. Both run each element's
  // ascending-k fma chain, so the split cannot change results. The panel's
  // first w columns are overwritten before use and the tiles read no
  // others: no zero fill.
  const std::size_t tiles = (M + kMaxRows - 1) / kMaxRows;
  auto& panel = nt_panel();
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    if (panel.size() < kb * kNR) panel.resize(kb * kNR);
    for (std::size_t j0 = 0; j0 < N; j0 += kNR) {
      const std::size_t w = std::min(kNR, N - j0);
      const double* bstrip = B + j0 * K + k0;
      if (w == kNR) {
        for (std::size_t k = 0; k < kb; ++k)
          for (std::size_t u = 0; u < kNR; ++u) panel[k * kNR + u] = bstrip[u * K + k];
      } else {
        for (std::size_t k = 0; k < kb; ++k)
          for (std::size_t u = 0; u < w; ++u) panel[k * kNR + u] = bstrip[u * K + k];
      }
      row_tiles({.c = C + j0, .ldc = N, .a = A + k0, .lda = K, .b = panel.data(),
                 .ldb = kNR, .bs = 0, .kb = kb, .w = w, .resume = k0 > 0, .ep = {}},
                M, tiles, 1);
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
