#include "nn/layers.h"

#include <cmath>
#include <istream>
#include <ostream>
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

void save_params(std::ostream& os, const std::vector<Param*>& params) {
  os << params.size() << '\n';
  os.precision(17);
  for (const Param* p : params) {
    os << p->value.rows() << ' ' << p->value.cols() << '\n';
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      if (i > 0) os << ' ';
      os << p->value.data()[i];
    }
    os << '\n';
  }
}

void load_params(std::istream& is, const std::vector<Param*>& params) {
  std::size_t count = 0;
  if (!(is >> count) || count != params.size())
    throw std::runtime_error{"load_params: parameter count mismatch"};
  for (Param* p : params) {
    std::size_t rows = 0;
    std::size_t cols = 0;
    if (!(is >> rows >> cols) || rows != p->value.rows() || cols != p->value.cols())
      throw std::runtime_error{"load_params: shape mismatch"};
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      if (!(is >> p->value.data()[i])) throw std::runtime_error{"load_params: truncated"};
    }
  }
}

}  // namespace graf::nn
