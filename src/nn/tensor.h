// Dense 2-D tensor (row-major, double precision).
//
// This is the numeric core under the autodiff tape (src/nn/autodiff.h).
// The GEMM entry points run a cache-blocked, register-tiled microkernel
// (DESIGN.md §3.9). The register tile is sized to the product, and every
// output element is one ascending-k accumulation chain from +0 whatever the
// tile, so results are independent of the thread count *and* of how many
// rows share a call — a K-row batched product equals K independent 1-row
// products, bit for bit. `matmul_naive` keeps the original triple loop as
// the property-test reference.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <utility>
#include <vector>

namespace graf::nn {

class Tensor {
 public:
  Tensor() = default;
  /// rows x cols, zero-initialized.
  Tensor(std::size_t rows, std::size_t cols);
  /// rows x cols filled with `fill`.
  Tensor(std::size_t rows, std::size_t cols, double fill);
  /// From nested initializer list; all rows must have equal length.
  Tensor(std::initializer_list<std::initializer_list<double>> rows);

  static Tensor zeros(std::size_t rows, std::size_t cols) { return {rows, cols}; }
  static Tensor full(std::size_t rows, std::size_t cols, double v) { return {rows, cols, v}; }
  /// 1x1 scalar tensor.
  static Tensor scalar(double v);
  /// 1xN row vector from values.
  static Tensor row(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Value of a 1x1 tensor. Throws otherwise.
  double item() const;

  void fill(double v);
  void zero() { fill(0.0); }

  /// Reshape to rows x cols, zero-filled. Reuses the existing allocation
  /// when capacity suffices — the tape arena calls this every iteration to
  /// recycle node buffers without touching the heap.
  void resize_zero(std::size_t rows, std::size_t cols);
  /// Reshape to rows x cols for a caller that writes every element: the
  /// values are unspecified until then, and a buffer of sufficient capacity
  /// is neither reallocated nor filled.
  void resize_for_overwrite(std::size_t rows, std::size_t cols);
  /// Become an elementwise copy of `o`, reusing the existing allocation
  /// when capacity suffices.
  void copy_from(const Tensor& o);

  // In-place arithmetic (shape-checked).
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(double s);

  /// Accumulate `s * o` into this tensor (axpy): this = fma(s, o, this)
  /// per element.
  void add_scaled(const Tensor& o, double s);

  double sum() const;
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix product a(r x k) * b(k x c).
Tensor matmul(const Tensor& a, const Tensor& b);
/// a^T * b  without materializing the transpose.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// a * b^T. Full 8-column strips of b^T are packed into a thread-local
/// panel (DESIGN.md §3.9); b itself is never transposed in full.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// Destination-reuse forms of the products above: `out` is reshaped
// (recycling its buffer) and overwritten with the result. These are what
// the autodiff ops call so a steady-state tape touches no heap.
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b);
/// a[row0, row0+rows)^T * b[row0, row0+rows): the weight gradient of one
/// row block of a stacked product, bit-identical to matmul_tn_into over
/// that block as a tensor of its own (same ascending-row chain).
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b,
                    std::size_t row0, std::size_t rows);
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b);

/// Reference triple-loop product (the pre-blocking implementation); kept as
/// the ground truth for the blocked-kernel property tests and benchmarks.
Tensor matmul_naive(const Tensor& a, const Tensor& b);

/// Fused bias + ReLU: out = max(0, a + broadcast_rows(bias)), with bias
/// 1 x cols(a). One pass instead of the add_row_broadcast + relu pair.
void bias_relu_into(Tensor& out, const Tensor& a, const Tensor& bias);

/// One frozen-MLP layer: out = a * b + broadcast_rows(bias), then
/// v > 0 ? v : 0 elementwise when `relu`, with the bias and ReLU applied in
/// the GEMM tile's epilogue (bias is 1 x cols(b)). Bit-identical to
/// matmul_into followed by bias_relu_into, or by a row-broadcast add.
void matmul_bias_into(Tensor& out, const Tensor& a, const Tensor& b,
                      const Tensor& bias, bool relu);

/// Column sums of g's rows [row0, row0+rows) into out (1 x cols(g)): the
/// bias gradient of one row block. With a ReLU output y (same shape as g),
/// each term is y > 0 ? g : +0, the gradient through the ReLU; with y null,
/// plain g. Every column adds its rows in ascending order from +0.
void col_sum_into(Tensor& out, const Tensor& g, std::size_t row0, std::size_t rows,
                  const Tensor* y);

/// The ReLU backward, in place: g = y > 0 ? g : +0 elementwise, with y the
/// ReLU's output (which is > 0 exactly where its input was). Branch-free, so
/// random signs cost no mispredictions.
void relu_mask(Tensor& g, const Tensor& y);

Tensor transpose(const Tensor& a);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace graf::nn
