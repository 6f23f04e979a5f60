#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/rng.h"

namespace graf::nn {
namespace {

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t{r, c};
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0, 1.0);
  return t;
}

TEST(Tensor, ZeroInitialized) {
  Tensor t{2, 3};
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(i, j), 0.0);
}

TEST(Tensor, InitializerList) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 3.0);
}

TEST(Tensor, RaggedInitializerThrows) {
  EXPECT_THROW((Tensor{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Tensor, ScalarAndItem) {
  EXPECT_DOUBLE_EQ(Tensor::scalar(3.5).item(), 3.5);
  Tensor t{2, 2};
  EXPECT_THROW(t.item(), std::logic_error);
}

TEST(Tensor, RowVector) {
  Tensor r = Tensor::row({1.0, 2.0, 3.0});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  EXPECT_DOUBLE_EQ(r(0, 2), 3.0);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a{1, 2};
  Tensor b{2, 1};
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, AddScaled) {
  Tensor a{{1.0, 1.0}};
  Tensor b{{2.0, 4.0}};
  a.add_scaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Tensor, MatmulKnownResult) {
  Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  Tensor b{{5.0, 6.0}, {7.0, 8.0}};
  Tensor c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Tensor, MatmulIdentity) {
  Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  Tensor id{{1.0, 0.0}, {0.0, 1.0}};
  Tensor c = matmul(a, id);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(c(i, j), a(i, j));
}

TEST(Tensor, MatmulDimensionCheck) {
  Tensor a{2, 3};
  Tensor b{2, 3};
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Tensor, TransposedProductsMatchExplicit) {
  Tensor a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};  // 2x3
  Tensor b{{1.0, 0.5}, {2.0, 1.5}};            // 2x2
  Tensor tn = matmul_tn(a, b);                 // a^T b: 3x2
  Tensor explicit_tn = matmul(transpose(a), b);
  ASSERT_TRUE(tn.same_shape(explicit_tn));
  for (std::size_t i = 0; i < tn.size(); ++i)
    EXPECT_DOUBLE_EQ(tn.data()[i], explicit_tn.data()[i]);

  Tensor c{{1.0, 2.0, 3.0}};  // 1x3
  Tensor nt = matmul_nt(a, c);  // a c^T: 2x1
  Tensor explicit_nt = matmul(a, transpose(c));
  ASSERT_TRUE(nt.same_shape(explicit_nt));
  for (std::size_t i = 0; i < nt.size(); ++i)
    EXPECT_DOUBLE_EQ(nt.data()[i], explicit_nt.data()[i]);
}

TEST(Tensor, SumAndMaxAbs) {
  Tensor a{{1.0, -5.0}, {2.0, 0.0}};
  EXPECT_DOUBLE_EQ(a.sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
}

// ---- Blocked-kernel properties (PR-5) ---------------------------------------

// The cache-blocked kernel must agree with the reference triple loop on
// shapes that exercise every remainder path: odd dims, single rows/cols,
// dims straddling the MR/NR/KC block boundaries. Both kernels chain
// fma(a_ik, b_kj, acc) in ascending k, so the results are bitwise equal —
// asserted at 1e-12 relative to stay honest about intent even if a future
// kernel reassociates (bit-exactness itself is covered below).
TEST(Tensor, BlockedMatmulMatchesNaiveOnAwkwardShapes) {
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 7, 13},   {3, 129, 65}, {17, 96, 120}, {5, 5, 5},
                {33, 31, 29}, {64, 1, 64},  {1, 1, 1},     {8, 513, 8},
                {16, 512, 16}, {2, 1023, 3}};
  Rng rng{101};
  for (const auto& s : shapes) {
    const Tensor a = random_tensor(s.m, s.k, rng);
    const Tensor b = random_tensor(s.k, s.n, rng);
    const Tensor fast = matmul(a, b);
    const Tensor ref = matmul_naive(a, b);
    ASSERT_TRUE(fast.same_shape(ref));
    double max_rel = 0.0;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      const double denom = std::max(1.0, std::abs(ref.data()[i]));
      max_rel = std::max(max_rel,
                         std::abs(fast.data()[i] - ref.data()[i]) / denom);
      EXPECT_EQ(fast.data()[i], ref.data()[i])
          << s.m << "x" << s.k << "x" << s.n << " entry " << i;
    }
    EXPECT_LE(max_rel, 1e-12);
  }
}

// Batched solver exactness hinges on this: row r of a K-row product must be
// bitwise identical to the 1-row product of row r alone. The kernel never
// mixes rows, so stacking starts into one matrix changes nothing.
TEST(Tensor, BatchedRowsMatchSingleRowBitwise) {
  Rng rng{103};
  const std::size_t K = 6, k = 37, n = 11;
  const Tensor b = random_tensor(k, n, rng);
  const Tensor batch = random_tensor(K, k, rng);
  const Tensor full = matmul(batch, b);
  for (std::size_t r = 0; r < K; ++r) {
    Tensor row{1, k};
    for (std::size_t j = 0; j < k; ++j) row(0, j) = batch(r, j);
    const Tensor single = matmul(row, b);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(full(r, j), single(0, j)) << "row " << r << " col " << j;
  }
}

TEST(Tensor, TransposedVariantsMatchNaiveComposition) {
  Rng rng{107};
  const Tensor a = random_tensor(9, 21, rng);
  const Tensor b = random_tensor(9, 5, rng);
  const Tensor tn = matmul_tn(a, b);
  const Tensor ref_tn = matmul_naive(transpose(a), b);
  ASSERT_TRUE(tn.same_shape(ref_tn));
  for (std::size_t i = 0; i < tn.size(); ++i)
    EXPECT_EQ(tn.data()[i], ref_tn.data()[i]);

  const Tensor c = random_tensor(7, 21, rng);
  const Tensor nt = matmul_nt(a, c);
  const Tensor ref_nt = matmul_naive(a, transpose(c));
  ASSERT_TRUE(nt.same_shape(ref_nt));
  for (std::size_t i = 0; i < nt.size(); ++i)
    EXPECT_EQ(nt.data()[i], ref_nt.data()[i]);

  // Every path of the a * b^T kernel: packed full 8-wide strips, packed
  // 1..7-wide tails on the edge tile (N mod 8 in {0, 1, 4, 7}), partial and
  // full row tiles, and K across the 512-deep panel boundary.
  for (const std::size_t m : {1, 2, 7, 8, 9, 17})
    for (const std::size_t n : {1, 4, 7, 8, 9, 12, 15, 16, 17, 20, 23})
      for (const std::size_t k : {1, 24, 513}) {
        const Tensor x = random_tensor(m, k, rng);
        const Tensor y = random_tensor(n, k, rng);
        const Tensor got = matmul_nt(x, y);
        const Tensor want = matmul_naive(x, transpose(y));
        ASSERT_TRUE(got.same_shape(want));
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(got.data()[i], want.data()[i])
              << m << "x" << k << " * (" << n << "x" << k << ")^T entry " << i;
      }
}

/// Bit equality, except that any two NaNs match: which NaN payload an fma
/// or add returns depends on its operand order, which the compiler picks.
bool same_value(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Rows [row0, row0+rows) of t as a tensor of their own.
Tensor row_block(const Tensor& t, std::size_t row0, std::size_t rows) {
  Tensor out{rows, t.cols()};
  std::copy_n(t.data() + row0 * t.cols(), rows * t.cols(), out.data());
  return out;
}

// The row-range weight gradient against the naive product of the explicit
// transpose, which has the same ascending-k fma chain and the same a == 0
// skip: every lane width and column-tile remainder, row ranges that start
// past row 0, exact +0 and -0 activations, and NaN or ±inf gradients in
// rows where half the activations are zero. Where a zero activation meets
// a non-finite gradient the term must be skipped, not multiplied in.
TEST(Tensor, WeightGradientMatchesNaive) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 80};
  const double specials[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  Rng rng{127};
  for (const std::size_t m : dims)
    for (const std::size_t n : dims)
      for (const std::size_t rows : {1, 7, 32, 513}) {
        const std::size_t row0 = rows % 5 + 1;
        const std::size_t total = row0 + rows + 2;
        Tensor a = random_tensor(total, m, rng);
        Tensor g = random_tensor(total, n, rng);
        for (std::size_t k = 0; k < total; ++k) {
          for (std::size_t i = 0; i < m; ++i)
            if (rng.uniform(0.0, 1.0) < 0.3) a(k, i) = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
          if (k % 4 != 1) continue;
          for (std::size_t i = 0; i < m; i += 2) a(k, i) = k % 8 == 1 ? 0.0 : -0.0;
          g(k, k % n) = specials[k % 3];
        }
        Tensor got;
        matmul_tn_into(got, a, g, row0, rows);
        const Tensor want = matmul_naive(transpose(row_block(a, row0, rows)),
                                         row_block(g, row0, rows));
        ASSERT_TRUE(got.same_shape(want));
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_TRUE(same_value(got.data()[i], want.data()[i]))
              << m << "x" << n << " rows " << row0 << "+" << rows << " entry " << i
              << ": " << got.data()[i] << " vs " << want.data()[i];
      }
}

// Every tile shape of matmul_into and matmul_bias_into (ReLU on and off)
// against the naive product plus the reference epilogue: 1..40 rows (one
// tile of up to 16 rows, or several of near-equal height), 1..15 column
// strips with a full or masked last strip, few-row tiles of several strips,
// and K across the 512-deep panel boundary. ±0, NaN and ±inf sit in A, B
// and the bias. matmul_naive skips a zero a_ik, which the kernels multiply
// in, so A's zeros sit only in columns k whose row of B is finite. Each
// product writes into a larger tensor of NaNs, which it must overwrite —
// with +0s at K = 0, where no k-panel runs.
TEST(Tensor, EveryTileShapeMatchesNaive) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), inf, -inf, -0.0, 0.0};
  constexpr std::size_t kRows = 40;
  for (const std::size_t n : {1, 9, 33}) {
    Tensor empty{7, 0};
    Tensor got{9, n + 2, std::nan("")};
    matmul_into(got, empty, Tensor{0, n});
    ASSERT_TRUE(got.rows() == 7 && got.cols() == n);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]), 0u) << "K = 0, N = " << n;
  }
  Rng rng{137};
  for (const std::size_t k : {1, 4, 8, 48, 512, 513})
    for (const std::size_t n : {1, 3, 7, 8, 9, 20, 24, 32, 33, 120}) {
      // B's rows k = 1 (mod 3) and every fifth bias entry hold specials.
      Tensor b = random_tensor(k, n, rng);
      for (std::size_t kk = 1; kk < k; kk += 3) b(kk, (kk * 7) % n) = specials[kk % 5];
      Tensor bias = random_tensor(1, n, rng);
      for (std::size_t j = 2; j < n; j += 5) bias(0, j) = specials[j % 5];
      Tensor a = random_tensor(kRows, k, rng);
      for (std::size_t i = 0; i < kRows; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) {
          if (kk % 3 != 1 && (i + kk) % 4 == 0) a(i, kk) = (i + kk) % 8 == 0 ? 0.0 : -0.0;
          if (i % 9 == 4 && kk == i % k) a(i, kk) = specials[i % 3];
        }
      // Rows never mix, so the first m rows of the full product are the
      // naive product of A's first m rows.
      const Tensor want = matmul_naive(a, b);
      for (std::size_t m = 1; m <= kRows; ++m) {
        const Tensor am = row_block(a, 0, m);
        for (int mode = 0; mode < 3; ++mode) {
          Tensor got{m + 3, n + 5, std::nan("")};
          if (mode == 0)
            matmul_into(got, am, b);
          else
            matmul_bias_into(got, am, b, bias, mode == 2);
          ASSERT_TRUE(got.rows() == m && got.cols() == n);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) {
              double v = want(i, j);
              if (mode > 0) v = v + bias(0, j);
              if (mode == 2) v = v > 0.0 ? v : 0.0;
              ASSERT_TRUE(same_value(got(i, j), v))
                  << m << "x" << k << "x" << n << " mode " << mode << " (" << i << ", " << j
                  << "): " << got(i, j) << " vs " << v;
            }
        }
      }
    }
}

// The bias-gradient column sums against the loop the tape ran before:
// unmasked, and through a ReLU output y with negative, zero and NaN entries
// (y > 0 fails for NaN, so its term is +0), over row ranges past row 0.
// Gradients opposite a masked y are non-finite and must not leak in.
TEST(Tensor, ColSumMatchesLoop) {
  Rng rng{131};
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 80})
    for (const std::size_t rows : {1, 7, 32}) {
      const std::size_t row0 = rows % 3 + 1;
      const std::size_t total = row0 + rows + 1;
      Tensor g = random_tensor(total, n, rng);
      Tensor y = random_tensor(total, n, rng);
      for (std::size_t i = 0; i < y.size(); ++i) {
        if (i % 7 == 3) y.data()[i] = std::nan("");
        if (i % 5 == 2) y.data()[i] = 0.0;
        if (!(y.data()[i] > 0.0) && i % 2 == 0)
          g.data()[i] = i % 4 == 0 ? std::nan("") : std::numeric_limits<double>::infinity();
      }
      Tensor masked_want{1, n};
      for (std::size_t i = row0; i < row0 + rows; ++i)
        for (std::size_t j = 0; j < n; ++j) masked_want(0, j) += y(i, j) > 0.0 ? g(i, j) : 0.0;
      Tensor got;
      col_sum_into(got, g, row0, rows, &y);
      ASSERT_TRUE(got.same_shape(masked_want));
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isfinite(got(0, j))) << n << " cols, rows " << rows << ", col " << j;
        EXPECT_TRUE(same_value(got(0, j), masked_want(0, j)))
            << "masked " << n << " cols, rows " << row0 << "+" << rows << ", col " << j;
      }

      g = random_tensor(total, n, rng);
      g(row0, 0) = std::nan("");
      Tensor plain_want{1, n};
      for (std::size_t i = row0; i < row0 + rows; ++i)
        for (std::size_t j = 0; j < n; ++j) plain_want(0, j) += g(i, j);
      col_sum_into(got, g, row0, rows, nullptr);
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_TRUE(same_value(got(0, j), plain_want(0, j)))
            << "plain " << n << " cols, rows " << row0 << "+" << rows << ", col " << j;
    }
}

TEST(Tensor, BiasReluFusionMatchesComposition) {
  Rng rng{109};
  const Tensor a = random_tensor(13, 19, rng);
  const Tensor bias = random_tensor(1, 19, rng);
  Tensor fused;
  bias_relu_into(fused, a, bias);
  ASSERT_EQ(fused.rows(), 13u);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double want = std::max(0.0, a(i, j) + bias(0, j));
      EXPECT_EQ(fused(i, j), want);
    }
}

// The frozen-MLP layer's tile epilogue against the two-step composition,
// bit for bit, on every tile path: vector and edge tiles, packed and
// in-place B, several k-panels, and a NaN row (the ReLU maps it to +0).
TEST(Tensor, MatmulBiasEpilogueMatchesComposition) {
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 4, 8},     {2, 24, 20}, {22, 8, 8}, {17, 96, 13},
                {3, 513, 9},   {16, 1025, 16}, {9, 1, 7}, {24, 20, 20}};
  Rng rng{113};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& s : shapes) {
    Tensor a = random_tensor(s.m, s.k, rng);
    a(0, 0) = std::nan("");
    const Tensor b = random_tensor(s.k, s.n, rng);
    const Tensor bias = random_tensor(1, s.n, rng);
    Tensor product, relu_want, got;
    matmul_into(product, a, b);
    bias_relu_into(relu_want, product, bias);
    matmul_bias_into(got, a, b, bias, /*relu=*/true);
    ASSERT_TRUE(got.same_shape(relu_want));
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(bits(got.data()[i]), bits(relu_want.data()[i]))
          << s.m << "x" << s.k << "x" << s.n << " relu entry " << i;
    matmul_bias_into(got, a, b, bias, /*relu=*/false);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j)
        EXPECT_EQ(bits(got(i, j)), bits(product(i, j) + bias(0, j)))
            << s.m << "x" << s.k << "x" << s.n << " linear (" << i << ", " << j << ")";
  }
}

// matmul_into with a correctly-sized destination must keep the buffer.
TEST(Tensor, MatmulIntoRecyclesDestination) {
  Rng rng{113};
  const Tensor a = random_tensor(4, 6, rng);
  const Tensor b = random_tensor(6, 3, rng);
  Tensor out;
  matmul_into(out, a, b);
  const double* buf = out.data();
  matmul_into(out, a, b);
  EXPECT_EQ(out.data(), buf);
  const Tensor ref = matmul_naive(a, b);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out.data()[i], ref.data()[i]);
}

}  // namespace
}  // namespace graf::nn
