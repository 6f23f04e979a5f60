#include "nn/autodiff.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace graf::nn {

// Backdoor for the op implementations below: backward hooks are capture-less
// function pointers, so they read their arguments (dependency ids, scalar
// parameters, the dropout mask, ...) from fields on the node itself.
struct OpAccess {
  static Tape::Node& node(Tape& t, int id) { return t.node(id); }
  static Tape::Node& staged(Tape& t) { return *t.nodes_[t.live_]; }
  static const Tensor& val(Tape& t, int id) { return t.node_value(id); }
  static Tensor& scratch(Tape& t) { return t.scratch_; }
};

namespace {

Tape& same_tape(Var a, Var b) {
  if (!a.valid() || !b.valid() || a.tape != b.tape)
    throw std::invalid_argument{"op: operands must live on the same tape"};
  return *a.tape;
}

// Dependency ids {a, b[0], b[1], ...} of a row-block weight op, after
// checking that every weight leaf reads the same tensor (the leaves of one
// Param) and that a's rows split into equal blocks. The returned span is
// valid until the next call.
std::span<const int> block_deps(Var a, std::span<const Var> b) {
  if (b.empty()) throw std::invalid_argument{"op: no weight leaves"};
  Tape& t = same_tape(a, b.front());
  const Tensor& w = t.value(b.front());
  if (t.value(a).rows() % b.size() != 0)
    throw std::invalid_argument{"op: rows do not split into the weight blocks"};
  thread_local std::vector<int> ids;
  ids.clear();
  ids.push_back(a.id);
  for (Var v : b) {
    same_tape(a, v);
    if (&t.value(v) != &w)
      throw std::invalid_argument{"op: weight leaves must read one tensor"};
    ids.push_back(v.id);
  }
  return ids;
}

// The weight leaves of a row-block op node: deps[0] is the input and
// deps[1 + j] row block j's leaf.
std::span<const int> weight_leaves(const std::vector<int>& deps) {
  return {deps.data() + 1, deps.size() - 1};
}

// dst (R x blocks*C) column block j <- src ((blocks*R) x C) row block j.
void copy_rows_to_cols(Tensor& dst, const Tensor& src, std::size_t blocks) {
  const std::size_t rows = dst.rows();
  const std::size_t cols = src.cols();
  for (std::size_t j = 0; j < blocks; ++j)
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(src.data() + (j * rows + r) * cols, cols,
                  dst.data() + r * blocks * cols + j * cols);
}

// dst ((blocks*R) x C) row block j <- src (R x blocks*C) column block j.
void copy_cols_to_rows(Tensor& dst, const Tensor& src, std::size_t blocks) {
  const std::size_t rows = src.rows();
  const std::size_t cols = dst.cols();
  for (std::size_t j = 0; j < blocks; ++j)
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(src.data() + r * blocks * cols + j * cols, cols,
                  dst.data() + (j * rows + r) * cols);
}

}  // namespace

// ---- Arena -----------------------------------------------------------------

Tape::Node& Tape::acquire() {
  if (live_ == nodes_.size()) nodes_.push_back(std::make_unique<Node>());
  Node& n = *nodes_[live_];
  n.ref = nullptr;
  n.param = nullptr;
  n.backward = nullptr;
  n.deps.clear();  // keeps capacity
  n.groups = {};
  n.a = -1;
  n.b = -1;
  n.i0 = 0;
  n.i1 = 0;
  n.s0 = 0.0;
  n.s1 = 0.0;
  n.requires_grad = false;
  n.grad_seen = false;
  return n;
}

void Tape::reset() { live_ = 0; }

Tape::Node& Tape::node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }

const Tape::Node& Tape::node(int id) const {
  return *nodes_.at(static_cast<std::size_t>(id));
}

const Tensor& Tape::node_value(int id) const {
  const Node& n = node(id);
  return n.ref != nullptr ? *n.ref : n.value;
}

// ---- Inputs ----------------------------------------------------------------

Var Tape::constant(Tensor value) {
  Node& n = acquire();
  n.value = std::move(value);
  return Var{this, static_cast<int>(live_++)};
}

Var Tape::constant_ref(const Tensor& value) {
  Node& n = acquire();
  n.ref = &value;
  return Var{this, static_cast<int>(live_++)};
}

Var Tape::leaf(Tensor value, bool requires_grad) {
  Node& n = acquire();
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  return Var{this, static_cast<int>(live_++)};
}

Var Tape::param(Param& p) {
  // The leaf's backward flushes the tape-local gradient into the Param
  // (unless the tape defers; then flush_param_grads() does it serially).
  Node& n = acquire();
  n.ref = &p.value;
  n.param = &p;
  n.requires_grad = true;
  n.backward = [](Tape& t, int id) {
    if (t.defer_param_grads_) return;
    auto& self = OpAccess::node(t, id);
    self.param->grad += self.grad;
  };
  return Var{this, static_cast<int>(live_++)};
}

std::span<const Var> Tape::param_blocks(Param& p, std::size_t blocks) {
  if (blocks == 0) throw std::invalid_argument{"param_blocks: need >= 1 block"};
  block_leaves_.clear();  // keeps capacity
  for (std::size_t j = 0; j < blocks; ++j) block_leaves_.push_back(param(p));
  return block_leaves_;
}

void Tape::flush_param_grads() {
  for (std::size_t i = 0; i < live_; ++i) {
    Node& n = *nodes_[i];
    if (n.param != nullptr && n.grad_seen) n.param->grad += n.grad;
  }
}

// ---- Staged op nodes -------------------------------------------------------

Tensor& Tape::stage(std::size_t rows, std::size_t cols) {
  Node& n = acquire();
  n.value.resize_zero(rows, cols);
  return n.value;
}

Var Tape::commit_staged(BackwardFn backward, bool needs) {
  Node& n = *nodes_[live_];
  n.requires_grad = needs;
  if (needs) n.backward = backward;
  return Var{this, static_cast<int>(live_++)};
}

Var Tape::commit_constant() { return commit_staged(nullptr, false); }

Var Tape::commit1(int a, BackwardFn backward) {
  nodes_[live_]->a = a;
  return commit_staged(backward, requires_grad(a));
}

Var Tape::commit2(int a, int b, BackwardFn backward) {
  Node& n = *nodes_[live_];
  n.a = a;
  n.b = b;
  return commit_staged(backward, requires_grad(a) || requires_grad(b));
}

Var Tape::commit_n(std::span<const int> deps, BackwardFn backward) {
  Node& n = *nodes_[live_];
  n.deps.assign(deps.begin(), deps.end());
  bool needs = false;
  for (int d : deps) needs = needs || requires_grad(d);
  return commit_staged(backward, needs);
}

// ---- Reads and gradient plumbing -------------------------------------------

const Tensor& Tape::value(Var v) const { return node_value(v.id); }

const Tensor& Tape::grad(Var v) {
  Node& n = node(v.id);
  if (!n.grad_seen) {
    const Tensor& val = node_value(v.id);
    n.grad.resize_zero(val.rows(), val.cols());
    n.grad_seen = true;
  }
  return n.grad;
}

bool Tape::requires_grad(int id) const { return node(id).requires_grad; }

void Tape::accumulate(int id, const Tensor& g) {
  Node& n = node(id);
  if (!n.requires_grad) return;
  if (!n.grad_seen) {
    n.grad.copy_from(g);
    n.grad_seen = true;
  } else {
    n.grad += g;
  }
}

void Tape::accumulate_scaled(int id, const Tensor& g, double s) {
  Node& n = node(id);
  if (!n.requires_grad) return;
  if (!n.grad_seen) {
    n.grad.resize_zero(g.rows(), g.cols());
    n.grad_seen = true;
  }
  n.grad.add_scaled(g, s);
}

void Tape::accumulate_product(int id, const Tensor& g, const Tensor& m) {
  Node& n = node(id);
  if (!n.requires_grad) return;
  if (!g.same_shape(m)) throw std::invalid_argument{"accumulate_product: shape mismatch"};
  if (!n.grad_seen) {
    n.grad.resize_zero(g.rows(), g.cols());
    n.grad_seen = true;
  }
  double* out = n.grad.data();
  const double* gp = g.data();
  const double* mp = m.data();
  for (std::size_t i = 0; i < g.size(); ++i) out[i] += gp[i] * mp[i];
}

void Tape::backward(Var out) {
  if (!out.valid() || out.tape != this) throw std::invalid_argument{"backward: foreign var"};
  if (node_value(out.id).size() != 1)
    throw std::invalid_argument{"backward: output must be scalar"};
  Node& root = node(out.id);
  if (root.requires_grad) {
    if (!root.grad_seen) {
      root.grad.resize_zero(1, 1);
      root.grad_seen = true;
    }
    root.grad(0, 0) += 1.0;
  }
  for (int id = out.id; id >= 0; --id) {
    Node& n = *nodes_[static_cast<std::size_t>(id)];
    if (n.requires_grad && n.grad_seen && n.backward != nullptr) n.backward(*this, id);
  }
}

// ---- Ops -------------------------------------------------------------------

Var add(Var a, Var b) {
  Tape& t = same_tape(a, b);
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b);
  if (!av.same_shape(bv)) throw std::invalid_argument{"add: shape mismatch"};
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = ap[i] + bp[i];
  return t.commit2(a.id, b.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    t.accumulate(n.a, n.grad);
    t.accumulate(n.b, n.grad);
  });
}

Var add_row_broadcast(Var a, Var b) { return add_row_broadcast(a, {&b, 1}); }

Var add_row_broadcast(Var a, std::span<const Var> b) {
  const std::span<const int> deps = block_deps(a, b);
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b.front());
  if (bv.rows() != 1 || bv.cols() != av.cols())
    throw std::invalid_argument{"add_row_broadcast: bias must be 1 x cols(a)"};
  Tensor& out = t.stage(av.rows(), av.cols());
  for (std::size_t i = 0; i < av.rows(); ++i)
    for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) = av(i, j) + bv(0, j);
  return t.commit_n(deps, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    t.accumulate(n.deps.front(), g);
    const std::span<const int> leaves = weight_leaves(n.deps);
    const std::size_t rows = g.rows() / leaves.size();
    for (std::size_t blk = 0; blk < leaves.size(); ++blk) {
      if (!t.requires_grad(leaves[blk])) continue;
      Tensor& gb = OpAccess::scratch(t);
      gb.resize_zero(1, g.cols());
      for (std::size_t i = blk * rows; i < (blk + 1) * rows; ++i)
        for (std::size_t j = 0; j < g.cols(); ++j) gb(0, j) += g(i, j);
      t.accumulate(leaves[blk], gb);
    }
  });
}

Var bias_relu(Var a, Var b) { return bias_relu(a, {&b, 1}); }

Var bias_relu(Var a, std::span<const Var> b) {
  const std::span<const int> deps = block_deps(a, b);
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b.front());
  if (bv.rows() != 1 || bv.cols() != av.cols())
    throw std::invalid_argument{"bias_relu: bias must be 1 x cols(a)"};
  Tensor& out = t.stage(av.rows(), av.cols());
  bias_relu_into(out, av, bv);
  // y > 0 iff the pre-activation was > 0, so the output doubles as the mask.
  return t.commit_n(deps, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& y = n.value;
    Tensor& s = OpAccess::scratch(t);
    s.copy_from(g);
    relu_mask(s, y);
    t.accumulate(n.deps.front(), s);
    const std::span<const int> leaves = weight_leaves(n.deps);
    const std::size_t rows = g.rows() / leaves.size();
    for (std::size_t blk = 0; blk < leaves.size(); ++blk) {
      if (!t.requires_grad(leaves[blk])) continue;
      // Column sums of the block's masked gradient; scratch is free again
      // because accumulate() copied it. A sum that starts at +0 never
      // becomes -0, so adding the masked +0s keeps its bits.
      s.resize_zero(1, g.cols());
      for (std::size_t i = blk * rows; i < (blk + 1) * rows; ++i)
        for (std::size_t j = 0; j < g.cols(); ++j)
          s(0, j) += y(i, j) > 0.0 ? g(i, j) : 0.0;
      t.accumulate(leaves[blk], s);
    }
  });
}

Var sub(Var a, Var b) {
  Tape& t = same_tape(a, b);
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b);
  if (!av.same_shape(bv)) throw std::invalid_argument{"sub: shape mismatch"};
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = ap[i] - bp[i];
  return t.commit2(a.id, b.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    t.accumulate(n.a, n.grad);
    t.accumulate_scaled(n.b, n.grad, -1.0);
  });
}

Var mul(Var a, Var b) {
  Tape& t = same_tape(a, b);
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b);
  if (!av.same_shape(bv)) throw std::invalid_argument{"mul: shape mismatch"};
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = ap[i] * bp[i];
  return t.commit2(a.id, b.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    if (t.requires_grad(n.a)) t.accumulate_product(n.a, n.grad, OpAccess::val(t, n.b));
    if (t.requires_grad(n.b)) t.accumulate_product(n.b, n.grad, OpAccess::val(t, n.a));
  });
}

Var matmul(Var a, Var b) { return matmul(a, {&b, 1}); }

Var matmul(Var a, std::span<const Var> b) {
  const std::span<const int> deps = block_deps(a, b);
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  const Tensor& bv = t.value(b.front());
  if (av.cols() != bv.rows()) throw std::invalid_argument{"matmul: inner dims differ"};
  Tensor& out = t.stage(av.rows(), bv.cols());
  matmul_into(out, av, bv);
  return t.commit_n(deps, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const int a = n.deps.front();
    const std::span<const int> leaves = weight_leaves(n.deps);
    Tensor& s = OpAccess::scratch(t);
    if (t.requires_grad(a)) {
      matmul_nt_into(s, g, OpAccess::val(t, leaves.front()));
      t.accumulate(a, s);
    }
    const std::size_t rows = g.rows() / leaves.size();
    for (std::size_t blk = 0; blk < leaves.size(); ++blk) {
      if (!t.requires_grad(leaves[blk])) continue;
      matmul_tn_into(s, OpAccess::val(t, a), g, blk * rows, rows);
      t.accumulate(leaves[blk], s);
    }
  });
}

Var scale(Var a, double s) {
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = ap[i] * s;
  OpAccess::staged(t).s0 = s;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    t.accumulate_scaled(n.a, n.grad, n.s0);
  });
}

Var add_scalar(Var a, double s) {
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = ap[i] + s;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    t.accumulate(n.a, n.grad);
  });
}

Var relu(Var a) {
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    const double v = ap[i];
    out.data()[i] = v > 0.0 ? v : 0.0;
  }
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    Tensor& s = OpAccess::scratch(t);
    s.copy_from(n.grad);
    relu_mask(s, n.value);
    t.accumulate(n.a, s);
  });
}

Var reciprocal(Var a) {
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = 1.0 / ap[i];
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& y = n.value;  // y = 1/x, dy/dx = -y^2
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(g.rows(), g.cols());
    for (std::size_t i = 0; i < g.size(); ++i)
      s.data()[i] = -g.data()[i] * y.data()[i] * y.data()[i];
    t.accumulate(n.a, s);
  });
}

Var exp(Var a) {
  Tape& t = *a.tape;
  const Tensor& av = t.value(a);
  Tensor& out = t.stage(av.rows(), av.cols());
  const double* ap = av.data();
  for (std::size_t i = 0; i < av.size(); ++i) out.data()[i] = std::exp(ap[i]);
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& y = n.value;  // dy/dx = y
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(g.rows(), g.cols());
    for (std::size_t i = 0; i < g.size(); ++i)
      s.data()[i] = g.data()[i] * y.data()[i];
    t.accumulate(n.a, s);
  });
}

Var dropout(Var a, double p, Rng& rng, bool training) {
  if (!training || p <= 0.0) return a;
  if (p >= 1.0) throw std::invalid_argument{"dropout: p must be < 1"};
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  Tensor& out = t.stage(in.rows(), in.cols());
  auto& mask = OpAccess::staged(t).aux;
  mask.resize_zero(in.rows(), in.cols());
  const double keep_scale = 1.0 / (1.0 - p);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask.data()[i] = rng.bernoulli(p) ? 0.0 : keep_scale;
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = in.data()[i] * mask.data()[i];
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    t.accumulate_product(n.a, n.grad, n.aux);
  });
}

Var concat_cols(std::span<const Var> parts) {
  if (parts.empty()) throw std::invalid_argument{"concat_cols: empty"};
  Tape& t = *parts.front().tape;
  const std::size_t rows = t.value(parts.front()).rows();
  std::size_t cols = 0;
  for (Var p : parts) {
    if (p.tape != &t) throw std::invalid_argument{"concat_cols: mixed tapes"};
    if (t.value(p).rows() != rows) throw std::invalid_argument{"concat_cols: row mismatch"};
    cols += t.value(p).cols();
  }
  Tensor& out = t.stage(rows, cols);
  std::size_t off = 0;
  for (Var p : parts) {
    const Tensor& v = t.value(p);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < v.cols(); ++j) out(i, off + j) = v(i, j);
    off += v.cols();
  }
  // Column offsets are recomputed from the dependency shapes on the way back,
  // so no per-node layout vector is needed.
  thread_local std::vector<int> dep_ids;
  dep_ids.clear();
  for (Var p : parts) dep_ids.push_back(p.id);
  return t.commit_n(dep_ids, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    std::size_t off = 0;
    for (int pid : n.deps) {
      const Tensor& v = OpAccess::val(t, pid);
      if (t.requires_grad(pid)) {
        Tensor& s = OpAccess::scratch(t);
        s.resize_zero(v.rows(), v.cols());
        for (std::size_t i = 0; i < v.rows(); ++i)
          for (std::size_t j = 0; j < v.cols(); ++j) s(i, j) = g(i, off + j);
        t.accumulate(pid, s);
      }
      off += v.cols();
    }
  });
}

Var slice_cols(Var a, std::size_t start, std::size_t len) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  if (start + len > in.cols()) throw std::invalid_argument{"slice_cols: out of range"};
  Tensor& out = t.stage(in.rows(), len);
  for (std::size_t i = 0; i < in.rows(); ++i)
    for (std::size_t j = 0; j < len; ++j) out(i, j) = in(i, start + j);
  auto& staged = OpAccess::staged(t);
  staged.i0 = start;
  staged.i1 = len;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(in.rows(), in.cols());
    for (std::size_t i = 0; i < in.rows(); ++i)
      for (std::size_t j = 0; j < n.i1; ++j) s(i, n.i0 + j) = g(i, j);
    t.accumulate(n.a, s);
  });
}

Var col_blocks_to_rows(Var a, std::size_t blocks) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  if (blocks == 0 || in.cols() % blocks != 0)
    throw std::invalid_argument{"col_blocks_to_rows: columns do not split into blocks"};
  Tensor& out = t.stage(in.rows() * blocks, in.cols() / blocks);
  copy_cols_to_rows(out, in, blocks);
  OpAccess::staged(t).i0 = blocks;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(in.rows(), in.cols());
    copy_rows_to_cols(s, n.grad, n.i0);
    t.accumulate(n.a, s);
  });
}

Var row_blocks_to_cols(Var a, std::size_t blocks) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  if (blocks == 0 || in.rows() % blocks != 0)
    throw std::invalid_argument{"row_blocks_to_cols: rows do not split into blocks"};
  Tensor& out = t.stage(in.rows() / blocks, in.cols() * blocks);
  copy_rows_to_cols(out, in, blocks);
  OpAccess::staged(t).i0 = blocks;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(in.rows(), in.cols());
    copy_cols_to_rows(s, n.grad, n.i0);
    t.accumulate(n.a, s);
  });
}

Var sum_row_blocks(Var a, std::span<const std::vector<int>> sources) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  const std::size_t blocks = sources.size();
  if (blocks == 0 || in.rows() % blocks != 0)
    throw std::invalid_argument{"sum_row_blocks: rows do not split into blocks"};
  for (const auto& src : sources)
    for (int j : src)
      if (j < 0 || static_cast<std::size_t>(j) >= blocks)
        throw std::invalid_argument{"sum_row_blocks: source block out of range"};
  const std::size_t len = in.rows() / blocks * in.cols();
  Tensor& out = t.stage(in.rows(), in.cols());
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::vector<int>& src = sources[i];
    if (src.empty()) continue;  // zero block
    double* dst = out.data() + i * len;
    std::copy_n(in.data() + static_cast<std::size_t>(src.front()) * len, len, dst);
    for (std::size_t p = 1; p < src.size(); ++p) {
      const double* add = in.data() + static_cast<std::size_t>(src[p]) * len;
      for (std::size_t e = 0; e < len; ++e) dst[e] = dst[e] + add[e];
    }
  }
  OpAccess::staged(t).groups = sources;
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const std::size_t blocks = n.groups.size();
    const std::size_t len = g.size() / blocks;
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(g.rows(), g.cols());
    thread_local std::vector<char> seen;
    seen.assign(blocks, 0);
    for (std::size_t i = blocks; i-- > 0;) {
      const double* gi = g.data() + i * len;
      for (int src : n.groups[i]) {
        const auto j = static_cast<std::size_t>(src);
        double* sj = s.data() + j * len;
        if (seen[j] == 0) {
          std::copy_n(gi, len, sj);
          seen[j] = 1;
        } else {
          for (std::size_t e = 0; e < len; ++e) sj[e] += gi[e];
        }
      }
    }
    t.accumulate(n.a, s);
  });
}

Var sum_all(Var a) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  Tensor& out = t.stage(1, 1);
  out(0, 0) = in.sum();
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const double g = n.grad(0, 0);
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(in.rows(), in.cols());
    s.fill(g);
    t.accumulate(n.a, s);
  });
}

Var sum_rows(Var a) {
  Tape& t = *a.tape;
  const Tensor& in = t.value(a);
  Tensor& out = t.stage(in.rows(), 1);
  for (std::size_t i = 0; i < in.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < in.cols(); ++j) acc += in(i, j);
    out(i, 0) = acc;
  }
  return t.commit1(a.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(in.rows(), in.cols());
    for (std::size_t i = 0; i < in.rows(); ++i)
      for (std::size_t j = 0; j < in.cols(); ++j) s(i, j) = g(i, 0);
    t.accumulate(n.a, s);
  });
}

Var mean_all(Var a) {
  Tape& t = *a.tape;
  const auto n = static_cast<double>(t.value(a).size());
  return scale(sum_all(a), 1.0 / n);
}

Var asym_huber(Var x, double theta_neg, double theta_pos) {
  if (theta_neg <= 0.0 || theta_pos <= 0.0)
    throw std::invalid_argument{"asym_huber: thetas must be positive"};
  Tape& t = *x.tape;
  const Tensor& in = t.value(x);
  Tensor& out = t.stage(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double v = in.data()[i];
    if (v < -theta_neg) {
      out.data()[i] = theta_neg * (-2.0 * v - theta_neg);
    } else if (v < theta_pos) {
      out.data()[i] = v * v;
    } else {
      out.data()[i] = theta_pos * (2.0 * v - theta_pos);
    }
  }
  auto& staged = OpAccess::staged(t);
  staged.s0 = theta_neg;
  staged.s1 = theta_pos;
  return t.commit1(x.id, [](Tape& t, int id) {
    auto& n = OpAccess::node(t, id);
    const Tensor& g = n.grad;
    const Tensor& in = OpAccess::val(t, n.a);
    Tensor& s = OpAccess::scratch(t);
    s.resize_zero(g.rows(), g.cols());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double v = in.data()[i];
      double d;
      if (v < -n.s0) {
        d = -2.0 * n.s0;
      } else if (v < n.s1) {
        d = 2.0 * v;
      } else {
        d = 2.0 * n.s1;
      }
      s.data()[i] = d * g.data()[i];
    }
    t.accumulate(n.a, s);
  });
}

}  // namespace graf::nn
