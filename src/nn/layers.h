// Neural-network building blocks: Linear layers and multi-layer perceptrons.
//
// Matches the model family of the paper's §4: ReLU MLPs with optional
// dropout on hidden layers. Modules expose their parameters for the
// optimizer and for (de)serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autodiff.h"

namespace graf::nn {

/// Base for anything holding trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Append pointers to this module's parameters (stable for module lifetime).
  virtual void collect_params(std::vector<Param*>& out) = 0;

  std::vector<Param*> params() {
    std::vector<Param*> out;
    collect_params(out);
    return out;
  }

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }

  std::size_t param_count() {
    std::size_t n = 0;
    for (Param* p : params()) n += p->value.size();
    return n;
  }

  /// Copies of all parameter tensors, in collect_params order. Together
  /// with load_state_dict this is the serialization / cloning hook used by
  /// the model store (src/serve).
  std::vector<Tensor> state_dict();

  /// Overwrite parameters from `state` (collect_params order). Throws on
  /// count or shape mismatch; parameters are untouched on failure.
  void load_state_dict(const std::vector<Tensor>& state);
};

/// Fully-connected layer: y = x W + b, Kaiming-uniform initialized.
///
/// `blocks` > 1 runs the layer once over x's rows split into that many
/// equal row blocks (a node-stacked message-passing layer): the output is
/// the plain product, and on a trainable tape each block's W/b gradient is
/// reduced separately (Tape::param_blocks), so Param::grad gets the bits
/// `blocks` separate forwards would give it.
class Linear : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng);

  Var forward(Tape& tape, Var x, std::size_t blocks = 1);
  /// Fused y = max(0, x W + b) — one tape node for the bias+ReLU pair
  /// (hidden-layer hot path; see nn::bias_relu).
  Var forward_relu(Tape& tape, Var x, std::size_t blocks = 1);

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  void collect_params(std::vector<Param*>& out) override;

  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Param w_;
  Param b_;
};

/// Size arithmetic over untrusted architecture fields (a checkpoint's
/// config): the result saturates at UINT64_MAX instead of wrapping.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b);
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b);

/// MLP: Linear -> ReLU [-> Dropout] repeated, with a linear final layer.
///
/// `dims` lists {in, hidden..., out}; e.g. {4, 20, 20, 20} builds the
/// paper's two-hidden-layer 20-unit message/update networks.
class Mlp : public Module {
 public:
  Mlp(std::vector<std::size_t> dims, double dropout_p, Rng& rng);

  /// Forward pass. `training` enables dropout (inverted-dropout scaling);
  /// `blocks` as in Linear::forward (dropout masks are then drawn over the
  /// stacked rows, layer by layer).
  Var forward(Tape& tape, Var x, Rng& rng, bool training, std::size_t blocks = 1);

  std::size_t in_features() const { return dims_.front(); }
  std::size_t out_features() const { return dims_.back(); }

  /// Weights and biases an Mlp over `dims` holds, computed without building
  /// it (saturating). A zero width counts as UINT64_MAX: no parameter bytes
  /// can match it.
  static std::uint64_t param_count(std::initializer_list<std::uint64_t> dims);
  using Module::param_count;

  void collect_params(std::vector<Param*>& out) override;

 private:
  std::vector<std::size_t> dims_;
  double dropout_p_;
  std::vector<Linear> layers_;
};

/// An Mlp frozen for a run of calls over unchanging weights (one solve):
/// each layer's W, a once-packed W^T and b, copied at construction.
/// forward() is one matmul_bias_into per layer — bias, and ReLU on hidden
/// layers, in the GEMM tile's epilogue — and keeps each hidden layer's
/// output; backward() masks the gradient by those outputs and multiplies by
/// W^T. Bit for bit, forward() is Mlp::forward in eval mode, and backward()
/// the input gradient a tape delivers through it: matmul_into against W^T
/// runs the ascending-k chains of the tape's matmul_nt against W. No
/// weight gradient is formed.
class FrozenMlp {
 public:
  explicit FrozenMlp(Mlp& mlp);

  std::size_t in_features() const;
  /// Every W and b finite. Then backward() maps a zero row of dy to a zero
  /// row (of either sign): each chain multiplies it only by W and the ReLU
  /// masks select.
  bool finite() const;

  /// x (rows x in) -> rows x out, valid until the next forward().
  const Tensor& forward(const Tensor& x);
  /// d(loss)/d(output) of the last forward (rows x out) -> d(loss)/d(x),
  /// valid until the next backward().
  const Tensor& backward(const Tensor& dy);

 private:
  struct Layer {
    Tensor w;   // in x out
    Tensor wt;  // out x in
    Tensor b;   // 1 x out
  };
  std::vector<Layer> layers_;
  std::vector<Tensor> out_;  // each layer's output of the last forward
  Tensor grad_[2];           // backward ping-pong
};

}  // namespace graf::nn
