// Reverse-mode automatic differentiation on a tape.
//
// A Tape records every operation of one forward pass; Tape::backward walks
// the recorded nodes in reverse and accumulates gradients. Two kinds of
// differentiable leaves exist:
//   * Param leaves — model weights; their gradients accumulate into the
//     Param object so an optimizer (src/nn/optim.h) can step them, and
//   * plain leaves with requires_grad — gradients with respect to a
//     model's *inputs*. GRAF's configuration solver (§3.5 of the paper)
//     descends such a gradient through a compiled frozen pass
//     (gnn::QuotaPass), which is pinned bit for bit against the tape.
//
// The tape is rebuilt every forward pass (define-by-run), exactly like the
// PyTorch programs the paper uses — but the node storage is an arena:
// reset() rewinds a cursor instead of destroying nodes, and every node's
// value/gradient/aux tensors keep their heap buffers for the next pass.
// Iterative workloads (training steps, the forecaster's refits, repeated
// predictions) therefore run with zero steady-state tape allocation
// (DESIGN.md §3.9). Op backwards are plain function pointers
// reading their arguments from per-node slots — no std::function captures,
// no per-node heap.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace graf::nn {

class Tape;

/// Trainable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value{std::move(v)}, grad{value.rows(), value.cols()} {}
  void zero_grad() { grad.zero(); }
};

/// Handle to a node on a Tape. Cheap to copy; valid until Tape::reset().
struct Var {
  Tape* tape = nullptr;
  int id = -1;

  bool valid() const { return tape != nullptr && id >= 0; }
};

class Tape {
 public:
  /// Op backward hook: reads grad(id) and accumulates into the node's
  /// dependencies. Plain function pointer; per-op state lives on the node.
  using BackwardFn = void (*)(Tape&, int);

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Non-differentiable input (moved into the node).
  Var constant(Tensor value);
  /// Non-differentiable input recorded by reference — no copy. `value`
  /// must outlive every use of this tape up to the next reset().
  Var constant_ref(const Tensor& value);
  /// Differentiable input; gradient readable via grad() after backward().
  Var leaf(Tensor value, bool requires_grad = true);
  /// Parameter input; gradient accumulates into `p.grad` during backward().
  /// Recorded by reference — `p` must outlive uses of this tape up to the
  /// next reset() (it always does: optimizers step between passes).
  Var param(Param& p);
  /// Weight leaves for a row-block op (matmul, add_row_broadcast,
  /// bias_relu) over `blocks` stacked row blocks: one param leaf per block,
  /// so each block's gradient is reduced on its own and reaches `p.grad` in
  /// the order `blocks` separate forwards would deliver it. The span is
  /// valid until the next call.
  std::span<const Var> param_blocks(Param& p, std::size_t blocks);

  // ---- Op-authoring API (staged nodes) ------------------------------------
  //
  // An op stages the output buffer of the node about to be recorded (a
  // recycled, zero-filled rows x cols tensor), fills it, then commits with
  // its dependencies and backward hook. Exactly one node may be staged at a
  // time; every op stages-fills-commits before the next op runs.

  Tensor& stage(std::size_t rows, std::size_t cols);
  /// Commit the staged node as a constant (no gradient).
  Var commit_constant();
  Var commit1(int a, BackwardFn backward);
  Var commit2(int a, int b, BackwardFn backward);
  Var commit_n(std::span<const int> deps, BackwardFn backward);

  const Tensor& value(Var v) const;
  /// Gradient of the last backward() w.r.t. `v`; zero tensor if untouched.
  const Tensor& grad(Var v);

  bool requires_grad(int id) const;

  /// Run reverse pass from a scalar (1x1) node, seeding with d(out)/d(out)=1.
  void backward(Var out);

  /// Accumulate `g` into node `id`'s gradient (used by op backward fns).
  void accumulate(int id, const Tensor& g);
  /// Accumulate `s * g` (no temporary).
  void accumulate_scaled(int id, const Tensor& g, double s);
  /// Accumulate the elementwise product `g ∘ m` (no temporary).
  void accumulate_product(int id, const Tensor& g, const Tensor& m);

  /// Rewind the arena (start the next forward pass). Node slots and their
  /// tensor buffers are kept for reuse.
  void reset();

  std::size_t node_count() const { return live_; }

  // ---- Parallel execution (DESIGN.md §3.7) --------------------------------
  //
  // Deferral makes a tape safe to run forward/backward on a worker thread
  // while other tapes share the same Param objects: param *values* are only
  // read, and nothing writes into the shared Param::grad until the caller
  // says so.

  /// When deferred, param-leaf gradients stay on the tape (readable through
  /// grad()) instead of flushing into Param::grad during backward();
  /// flush_param_grads() later accumulates them serially. Data-parallel
  /// training defers on every worker tape and flushes in shard order, which
  /// keeps the reduction deterministic at any thread count.
  void set_defer_param_grads(bool defer) { defer_param_grads_ = defer; }
  /// Accumulate every param leaf's tape gradient into its Param::grad, in
  /// tape (recording) order. No-op for leaves backward() never reached.
  void flush_param_grads();

 private:
  friend struct OpAccess;  // op backward internals (autodiff.cpp)

  struct Node {
    Tensor value;             // owned value (unused when ref != nullptr)
    Tensor grad;              // recycled; valid only when grad_seen
    Tensor aux;               // op payload (e.g. dropout mask); recycled
    const Tensor* ref = nullptr;  // external value (constant_ref / param)
    Param* param = nullptr;
    BackwardFn backward = nullptr;
    std::vector<int> deps;    // variable-arity dependencies (concat_cols)
    std::span<const std::vector<int>> groups;  // sum_row_blocks sources
    int a = -1;               // dependency ids for <=2-operand ops
    int b = -1;
    std::size_t i0 = 0;       // integer op args (e.g. slice start/len)
    std::size_t i1 = 0;
    double s0 = 0.0;          // scalar op args
    double s1 = 0.0;
    bool requires_grad = false;
    bool grad_seen = false;
  };

  /// Slot at index live_, recycled or freshly created; fields cleared.
  Node& acquire();
  Node& node(int id);
  const Node& node(int id) const;
  const Tensor& node_value(int id) const;
  Var commit_staged(BackwardFn backward, bool needs);

  // unique_ptr slots: node addresses (and staged-value references) stay
  // stable while the arena vector grows.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t live_ = 0;
  Tensor scratch_;  // shared temp for backward hooks (serial, recycled)
  std::vector<Var> block_leaves_;  // param_blocks() result (recycled)
  bool defer_param_grads_ = false;
};

// ---- Operations -----------------------------------------------------------
// All ops require operands on the same tape.

// Row-block weight ops. `b` lists one weight leaf per row block of `a`
// (Tape::param_blocks): a's rows split into b.size() equal blocks, and
// every leaf reads the same tensor, so the forward is the plain op over all
// rows. Backward reduces each block's weight gradient separately into its
// own leaf with the loops a per-block op would run, so the gradient bits
// match b.size() separate ops. A single leaf is the ordinary op.

/// Elementwise sum; shapes must match.
Var add(Var a, Var b);
/// a (B x C) + bias b (1 x C) broadcast over rows.
Var add_row_broadcast(Var a, Var b);
Var add_row_broadcast(Var a, std::span<const Var> b);
/// Fused max(0, a + broadcast_rows(b)) — one node instead of the
/// add_row_broadcast + relu pair (the MLP hidden-layer hot path).
Var bias_relu(Var a, Var b);
Var bias_relu(Var a, std::span<const Var> b);
/// Elementwise difference.
Var sub(Var a, Var b);
/// Elementwise (Hadamard) product.
Var mul(Var a, Var b);
/// Matrix product.
Var matmul(Var a, Var b);
Var matmul(Var a, std::span<const Var> b);
/// Multiply by scalar constant.
Var scale(Var a, double s);
/// Add scalar constant elementwise.
Var add_scalar(Var a, double s);
/// Elementwise max(0, x).
Var relu(Var a);
/// Elementwise 1/x. Caller must keep inputs away from zero (quota features
/// are bounded below by Algorithm 1's lower bounds).
Var reciprocal(Var a);
/// Elementwise e^x; backward reuses the stored forward value (dy/dx = y).
Var exp(Var a);
/// Inverted dropout: zero with prob p and rescale by 1/(1-p). Identity when
/// `training` is false or p == 0.
Var dropout(Var a, double p, Rng& rng, bool training);
/// Horizontal concatenation (equal row counts).
Var concat_cols(std::span<const Var> parts);
/// Columns [start, start+len) of a.
Var slice_cols(Var a, std::size_t start, std::size_t len);

// Node-stacked layout (DESIGN.md §3.2): n per-node R x C blocks stacked
// node-major into one (n·R) x C matrix, so each message-passing layer runs
// once over every node's rows.

/// R x (blocks·C) -> (blocks·R) x C: column block j becomes row block j.
Var col_blocks_to_rows(Var a, std::size_t blocks);
/// (blocks·R) x C -> R x (blocks·C): row block j becomes column block j
/// (the per-node embeddings side by side, as the readout consumes them).
Var row_blocks_to_cols(Var a, std::size_t blocks);
/// a stacks sources.size() row blocks; block i of the result is the
/// left-to-right sum of a's blocks sources[i] (a zero block when empty).
/// Backward adds block i's gradient into each source block for i
/// descending, copying the first contribution — the order a reverse walk
/// over per-block sums delivers it. `sources` is referenced, not copied:
/// it must outlive the tape's next reset().
Var sum_row_blocks(Var a, std::span<const std::vector<int>> sources);
/// Sum of all entries -> 1x1.
Var sum_all(Var a);
/// Mean of all entries -> 1x1.
Var mean_all(Var a);
/// Elementwise asymmetric Hüber (paper Eq. 4, continuity-corrected):
///   x < -theta_neg      ->  theta_neg * (-2x - theta_neg)
///   -theta_neg..theta_pos -> x^2
///   x >= theta_pos      ->  theta_pos * (2x - theta_pos)
/// theta_neg governs the under-estimation side, theta_pos the over-estimation
/// side (for x = percentage error (pred - actual)/actual).
Var asym_huber(Var x, double theta_neg, double theta_pos);

}  // namespace graf::nn
