#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace graf::nn {
namespace {

Tensor kaiming_uniform(std::size_t in, std::size_t out, Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in));
  Tensor w{in, out};
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-limit, limit);
  return w;
}

}  // namespace

std::vector<Tensor> Module::state_dict() {
  std::vector<Tensor> out;
  for (Param* p : params()) out.push_back(p->value);
  return out;
}

void Module::load_state_dict(const std::vector<Tensor>& state) {
  auto ps = params();
  if (state.size() != ps.size())
    throw std::runtime_error{"load_state_dict: parameter count mismatch"};
  for (std::size_t i = 0; i < ps.size(); ++i)
    if (!state[i].same_shape(ps[i]->value))
      throw std::runtime_error{"load_state_dict: shape mismatch"};
  for (std::size_t i = 0; i < ps.size(); ++i) ps[i]->value = state[i];
}

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : in_{in}, out_{out}, w_{kaiming_uniform(in, out, rng)}, b_{Tensor{1, out}} {}

Var Linear::forward(Tape& tape, Var x, std::size_t blocks) {
  Var y = matmul(x, tape.param_blocks(w_, blocks));
  return add_row_broadcast(y, tape.param_blocks(b_, blocks));
}

Var Linear::forward_relu(Tape& tape, Var x, std::size_t blocks) {
  Var y = matmul(x, tape.param_blocks(w_, blocks));
  return bias_relu(y, tape.param_blocks(b_, blocks));
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

Mlp::Mlp(std::vector<std::size_t> dims, double dropout_p, Rng& rng)
    : dims_{std::move(dims)}, dropout_p_{dropout_p} {
  if (dims_.size() < 2) throw std::invalid_argument{"Mlp: need at least in/out dims"};
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i)
    layers_.emplace_back(dims_[i], dims_[i + 1], rng);
}

Var Mlp::forward(Tape& tape, Var x, Rng& rng, bool training, std::size_t blocks) {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    if (last) {
      h = layers_[i].forward(tape, h, blocks);
    } else {
      h = layers_[i].forward_relu(tape, h, blocks);
      h = dropout(h, dropout_p_, rng, training);
    }
  }
  return h;
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

std::uint64_t Mlp::param_count(std::initializer_list<std::uint64_t> dims) {
  std::uint64_t n = 0;
  for (const std::uint64_t* d = dims.begin(); d + 1 < dims.end(); ++d) {
    if (d[0] == 0 || d[1] == 0) return UINT64_MAX;
    n = sat_add(n, sat_add(sat_mul(d[0], d[1]), d[1]));
  }
  return n;
}

void Mlp::collect_params(std::vector<Param*>& out) {
  for (auto& l : layers_) l.collect_params(out);
}

FrozenMlp::FrozenMlp(Mlp& mlp) {
  const std::vector<Param*> ps = mlp.params();  // W0, b0, W1, b1, ...
  for (std::size_t l = 0; l + 1 < ps.size(); l += 2)
    layers_.push_back({ps[l]->value, transpose(ps[l]->value), ps[l + 1]->value});
  out_.resize(layers_.size());
}

std::size_t FrozenMlp::in_features() const { return layers_.front().w.rows(); }

bool FrozenMlp::finite() const {
  const auto finite = [](const Tensor& t) {
    return std::all_of(t.data(), t.data() + t.size(),
                       [](double v) { return std::isfinite(v); });
  };
  return std::all_of(layers_.begin(), layers_.end(),
                     [&](const Layer& l) { return finite(l.w) && finite(l.b); });
}

const Tensor& FrozenMlp::forward(const Tensor& x) {
  const Tensor* h = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool hidden = l + 1 < layers_.size();
    matmul_bias_into(out_[l], *h, layers_[l].w, layers_[l].b, hidden);
    h = &out_[l];
  }
  return *h;
}

const Tensor& FrozenMlp::backward(const Tensor& dy) {
  // The tape's order per layer: a hidden layer's bias_relu passes g where
  // its output is > 0 (the output doubles as the mask), then the matmul
  // sends g * W^T to the layer's input. The last layer is linear.
  const Tensor* g = &dy;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Tensor& next = grad_[l % 2];
    if (l + 1 < layers_.size()) relu_mask(grad_[(l + 1) % 2], out_[l]);  // *g, in place
    matmul_into(next, *g, layers_[l].wt);
    g = &next;
  }
  return *g;
}

}  // namespace graf::nn
