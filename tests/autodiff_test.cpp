// Gradient checks: every op's analytic gradient is compared against central
// finite differences on random inputs.
#include "nn/autodiff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "apps/catalog.h"
#include "common/rng.h"
#include "gnn/batched_latency_model.h"
#include "nn/loss.h"
#include "nn/optim.h"

/// Heap allocations since program start, counted by the global operator-new
/// overrides at the bottom of this file. Constant-initialized, so it is
/// valid even for allocations made before main().
extern std::atomic<std::uint64_t> g_alloc_count;

namespace graf::nn {
namespace {

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Tensor t{r, c};
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-scale, scale);
  return t;
}

/// Check d(scalar f)/d(x) against finite differences at every entry of x.
void gradcheck(const Tensor& x0,
               const std::function<Var(Tape&, Var)>& f, double tol = 1e-6,
               double eps = 1e-6) {
  Tape tape;
  Var x = tape.leaf(x0);
  Var y = f(tape, x);
  tape.backward(y);
  const Tensor analytic = tape.grad(x);

  for (std::size_t i = 0; i < x0.size(); ++i) {
    Tensor xp = x0;
    Tensor xm = x0;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    Tape tp;
    const double fp = tp.value(f(tp, tp.leaf(xp, false))).item();
    Tape tm;
    const double fm = tm.value(f(tm, tm.leaf(xm, false))).item();
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i << " of " << x0.rows() << "x" << x0.cols();
  }
}

TEST(Autodiff, SumAllGradientIsOnes) {
  Rng rng{1};
  gradcheck(random_tensor(3, 4, rng),
            [](Tape&, Var x) { return sum_all(x); });
}

TEST(Autodiff, MeanAllGradient) {
  Rng rng{2};
  gradcheck(random_tensor(2, 5, rng),
            [](Tape&, Var x) { return mean_all(x); });
}

TEST(Autodiff, ScaleAndAddScalarGradient) {
  Rng rng{3};
  gradcheck(random_tensor(2, 3, rng), [](Tape&, Var x) {
    return sum_all(add_scalar(scale(x, 2.5), -1.0));
  });
}

TEST(Autodiff, AddGradientFlowsToBoth) {
  Rng rng{4};
  const Tensor b0 = random_tensor(2, 2, rng);
  gradcheck(random_tensor(2, 2, rng), [&](Tape& t, Var x) {
    Var b = t.leaf(b0, false);
    return sum_all(mul(add(x, b), add(x, b)));
  });
}

TEST(Autodiff, SubGradient) {
  Rng rng{5};
  const Tensor b0 = random_tensor(3, 2, rng);
  gradcheck(random_tensor(3, 2, rng), [&](Tape& t, Var x) {
    Var b = t.constant(b0);
    Var d = sub(x, b);
    return sum_all(mul(d, d));
  });
}

TEST(Autodiff, MulGradient) {
  Rng rng{6};
  const Tensor b0 = random_tensor(2, 3, rng);
  gradcheck(random_tensor(2, 3, rng), [&](Tape& t, Var x) {
    return sum_all(mul(x, t.constant(b0)));
  });
}

TEST(Autodiff, MatmulGradientLeft) {
  Rng rng{7};
  const Tensor w = random_tensor(4, 3, rng);
  gradcheck(random_tensor(2, 4, rng), [&](Tape& t, Var x) {
    Var y = matmul(x, t.constant(w));
    return sum_all(mul(y, y));
  });
}

TEST(Autodiff, MatmulGradientRight) {
  Rng rng{8};
  const Tensor a = random_tensor(3, 4, rng);
  gradcheck(random_tensor(4, 2, rng), [&](Tape& t, Var x) {
    Var y = matmul(t.constant(a), x);
    return sum_all(mul(y, y));
  });
}

TEST(Autodiff, ReluGradient) {
  Rng rng{9};
  // Avoid kink exactly at 0 by shifting values away from it.
  Tensor x0 = random_tensor(3, 3, rng);
  for (std::size_t i = 0; i < x0.size(); ++i)
    if (std::abs(x0.data()[i]) < 0.05) x0.data()[i] += 0.1;
  gradcheck(x0, [](Tape&, Var x) { return sum_all(relu(x)); });
}

TEST(Autodiff, ReluForwardClampsNegative) {
  Tape t;
  Var x = t.constant(Tensor{{-1.0, 0.0, 2.0}});
  const Tensor& y = t.value(relu(x));
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
}

TEST(Autodiff, AddRowBroadcastGradient) {
  Rng rng{10};
  const Tensor a = random_tensor(4, 3, rng);
  gradcheck(random_tensor(1, 3, rng), [&](Tape& t, Var bias) {
    Var y = add_row_broadcast(t.constant(a), bias);
    return sum_all(mul(y, y));
  });
}

TEST(Autodiff, ConcatColsGradient) {
  Rng rng{11};
  const Tensor b0 = random_tensor(2, 3, rng);
  gradcheck(random_tensor(2, 2, rng), [&](Tape& t, Var x) {
    const Var parts[] = {x, t.constant(b0), x};
    Var y = concat_cols(parts);
    return sum_all(mul(y, y));
  });
}

// The node-stacked layout ops: both block moves (each is the other's
// backward) and parent sums with a shared source, a multi-source block and
// an empty (zero) block.
TEST(Autodiff, RowBlockLayoutGradients) {
  Rng rng{13};
  const Tensor m = random_tensor(2, 1, rng);
  const Tensor w = random_tensor(6, 1, rng);
  gradcheck(random_tensor(2, 6, rng), [&](Tape& t, Var x) {
    Var stacked = col_blocks_to_rows(x, 3);  // 6 x 2
    return sum_all(mul(matmul(stacked, t.constant(m)), t.constant(w)));
  });
  const Tensor v = random_tensor(2, 6, rng);
  gradcheck(random_tensor(6, 2, rng), [&](Tape& t, Var x) {
    return sum_all(mul(row_blocks_to_cols(x, 3), t.constant(v)));
  });
  const std::vector<std::vector<int>> sources{{}, {0}, {2, 0, 1}, {0, 2}};
  const Tensor u = random_tensor(8, 3, rng);
  gradcheck(random_tensor(8, 3, rng), [&](Tape& t, Var x) {
    Var s = sum_row_blocks(x, sources);
    return sum_all(mul(mul(s, s), t.constant(u)));
  });
}

// Row-block weight ops take only leaves of one tensor, in a count that
// splits the rows evenly; parent sums only name existing blocks.
TEST(Autodiff, RowBlockOpsRejectMismatchedInputs) {
  Param p{Tensor{2, 3, 0.5}};
  Param q{Tensor{2, 3, 0.5}};
  Tape t;
  Var x = t.leaf(Tensor{4, 2, 1.0});
  const Var mixed[] = {t.param(p), t.param(q)};
  EXPECT_THROW(matmul(x, mixed), std::invalid_argument);
  EXPECT_THROW(matmul(t.leaf(Tensor{3, 2, 1.0}), t.param_blocks(p, 2)),
               std::invalid_argument);
  EXPECT_NO_THROW(matmul(x, t.param_blocks(p, 2)));
  EXPECT_THROW(t.param_blocks(p, 0), std::invalid_argument);
  const std::vector<std::vector<int>> bad{{0}, {2}};
  EXPECT_THROW(sum_row_blocks(x, bad), std::invalid_argument);
  EXPECT_THROW(row_blocks_to_cols(t.leaf(Tensor{3, 2, 1.0}), 2), std::invalid_argument);
  EXPECT_THROW(col_blocks_to_rows(t.leaf(Tensor{2, 3, 1.0}), 2), std::invalid_argument);
}

TEST(Autodiff, SliceColsGradient) {
  Rng rng{12};
  gradcheck(random_tensor(3, 5, rng), [](Tape&, Var x) {
    Var y = slice_cols(x, 1, 3);
    return sum_all(mul(y, y));
  });
}

TEST(Autodiff, SliceOutOfRangeThrows) {
  Tape t;
  Var x = t.constant(Tensor{2, 4});
  EXPECT_THROW(slice_cols(x, 2, 3), std::invalid_argument);
}

TEST(Autodiff, AsymHuberGradient) {
  Rng rng{13};
  // Sample clear of the two kinks at -0.3 and 0.1.
  Tensor x0{1, 6};
  x0(0, 0) = -0.8;
  x0(0, 1) = -0.31;
  x0(0, 2) = -0.05;
  x0(0, 3) = 0.05;
  x0(0, 4) = 0.2;
  x0(0, 5) = 0.9;
  gradcheck(x0, [](Tape&, Var x) { return sum_all(asym_huber(x, 0.3, 0.1)); });
}

TEST(Autodiff, DropoutEvalIsIdentity) {
  Rng rng{14};
  Tape t;
  Tensor x0 = random_tensor(2, 4, rng);
  Var x = t.constant(x0);
  Var y = dropout(x, 0.5, rng, /*training=*/false);
  EXPECT_EQ(y.id, x.id);  // literally the same node
}

TEST(Autodiff, DropoutTrainPreservesMeanRoughly) {
  Rng rng{15};
  Tape t;
  Tensor x0{100, 100, 1.0};
  Var x = t.constant(x0);
  Var y = dropout(x, 0.25, rng, /*training=*/true);
  const double mean = t.value(y).sum() / 10000.0;
  EXPECT_NEAR(mean, 1.0, 0.05);  // inverted dropout keeps the expectation
}

TEST(Autodiff, DropoutGradientUsesSameMask) {
  Rng rng{16};
  Tape t;
  Tensor x0{1, 8, 2.0};
  Var x = t.leaf(x0);
  Var y = dropout(x, 0.5, rng, /*training=*/true);
  t.backward(sum_all(y));
  const Tensor& g = t.grad(x);
  const Tensor& yv = t.value(y);
  for (std::size_t i = 0; i < 8; ++i) {
    if (yv.data()[i] == 0.0) {
      EXPECT_DOUBLE_EQ(g.data()[i], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(g.data()[i], 2.0);  // 1/(1-0.5)
    }
  }
}

TEST(Autodiff, ParamAccumulatesGradient) {
  Param p{Tensor{{1.0, 2.0}}};
  Tape t;
  Var v = t.param(p);
  t.backward(sum_all(mul(v, v)));  // d/dp sum(p^2) = 2p
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 1), 4.0);
  // A second pass accumulates on top.
  Tape t2;
  Var v2 = t2.param(p);
  t2.backward(sum_all(v2));
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 3.0);
}

TEST(Autodiff, ReusedVariableAccumulates) {
  // f(x) = sum(x) + sum(x) => grad = 2.
  Tape t;
  Var x = t.leaf(Tensor{{5.0}});
  Var y = add(sum_all(x), sum_all(x));
  t.backward(y);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 2.0);
}

TEST(Autodiff, BackwardRequiresScalar) {
  Tape t;
  Var x = t.leaf(Tensor{2, 2});
  EXPECT_THROW(t.backward(x), std::invalid_argument);
}

TEST(Autodiff, MixedTapesRejected) {
  Tape t1;
  Tape t2;
  Var a = t1.leaf(Tensor{1, 1});
  Var b = t2.leaf(Tensor{1, 1});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(Autodiff, ConstantsReceiveNoGradient) {
  Tape t;
  Var c = t.constant(Tensor{{3.0}});
  Var x = t.leaf(Tensor{{2.0}});
  Var y = sum_all(mul(x, c));
  t.backward(y);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 3.0);
  EXPECT_FALSE(t.requires_grad(c.id));
}

TEST(Autodiff, DeepChainGradient) {
  // y = ((x * 2 + 1) * 2 + 1) ... 10 times; dy/dx = 2^10.
  Tape t;
  Var x = t.leaf(Tensor{{1.0}});
  Var h = x;
  for (int i = 0; i < 10; ++i) h = add_scalar(scale(h, 2.0), 1.0);
  t.backward(sum_all(h));
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 1024.0);
}

TEST(Loss, MseLossValueAndGradient) {
  Tape t;
  Var pred = t.leaf(Tensor{{3.0, 5.0}});
  Tensor target{{1.0, 5.0}};
  Var l = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(t.value(l).item(), 2.0);  // ((2)^2 + 0)/2
  t.backward(l);
  EXPECT_DOUBLE_EQ(t.grad(pred)(0, 0), 2.0);  // 2*(3-1)/2
  EXPECT_DOUBLE_EQ(t.grad(pred)(0, 1), 0.0);
}

TEST(Loss, PercentageErrorValues) {
  Tape t;
  Var pred = t.leaf(Tensor{{110.0, 90.0}});
  Var target = t.constant(Tensor{{100.0, 100.0}});
  const Tensor& x = t.value(percentage_error(pred, target));
  EXPECT_NEAR(x(0, 0), 0.1, 1e-12);
  EXPECT_NEAR(x(0, 1), -0.1, 1e-12);
}

// ---- Arena steady state (PR-5) ----------------------------------------------
//
// Once a graph shape has been seen, rebuilding the same graph after reset()
// must recycle every node, value buffer, gradient buffer, and backward
// scratch — the solver's descent loop runs thousands of tape passes per
// plan and may not touch the allocator in steady state. The graph below
// exercises the ops that dominate that loop: param, constant_ref,
// matmul, fused bias_relu, concat_cols, slice_cols, relu, scale,
// add_scalar, add, and sum_all, plus a full backward into a Param.
TEST(Autodiff, SteadyStateTapeRunsAllocationFree) {
  Rng rng{77};
  const Tensor w1 = random_tensor(6, 16, rng, 0.3);
  const Tensor b1 = random_tensor(1, 16, rng, 0.1);
  const Tensor w2 = random_tensor(17, 1, rng, 0.3);
  Param p{random_tensor(4, 6, rng)};
  Tape tape;

  auto run = [&] {
    tape.reset();
    Var x = tape.param(p);
    Var h = bias_relu(matmul(x, tape.constant_ref(w1)), tape.constant_ref(b1));
    const Var parts[] = {h, slice_cols(x, 0, 1)};
    Var y = matmul(concat_cols(parts), tape.constant_ref(w2));
    Var loss = sum_all(add(scale(y, 0.25), relu(add_scalar(y, -0.5))));
    p.zero_grad();
    tape.backward(loss);
    return tape.value(loss).item();
  };

  const double warm = run();  // allocates every buffer once
  run();                      // settles amortized capacities (dep lists etc.)

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const double steady = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_DOUBLE_EQ(steady, warm);  // recycled buffers change nothing
}

// A training shard's loss in steady state: labels staged on the tape, the
// percentage error's reciprocal staged beside them, and the backward into
// the predictions' Param. Once warmed, a step on the rewound tape reuses
// every node and buffer.
TEST(Autodiff, WarmedPctLossStepIsAllocationFree) {
  Rng rng{81};
  Param pred{random_tensor(16, 1, rng)};
  Tape tape;

  auto run = [&] {
    tape.reset();
    Tensor& labels = tape.stage(16, 1);
    for (std::size_t r = 0; r < 16; ++r)
      labels(r, 0) = 0.5 + 0.1 * static_cast<double>(r);
    Var loss = asym_huber_pct_loss(tape.param(pred), tape.commit_constant(), 0.3, 0.1);
    pred.zero_grad();
    tape.backward(loss);
    return tape.value(loss).item();
  };

  const double warm = run();
  run();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const double steady = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(steady, warm);
  EXPECT_GT(pred.grad.max_abs(), 0.0);
}

// The solver's steady state end to end: one descent iteration — the frozen
// LatencyModel::Pass forward over two Online Boutique graphs' rows, its
// backward into the quota rows and the Adam step — must reuse every pass
// buffer and kernel panel once one iteration has warmed them up.
TEST(Autodiff, FrozenMpnnDescentIterationIsAllocationFree) {
  const apps::Topology topo = apps::online_boutique();
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  gnn::LatencyModel model{apps::make_dag(topo), cfg, 5};
  const std::size_t n = model.node_count();
  gnn::BatchedLatencyModel batched{model, 1};
  batched.add_graph(std::vector<double>(n, 40.0));
  batched.add_graph(std::vector<double>(n, 90.0));
  gnn::LatencyModel::Pass pass = batched.pass();
  Rng rng{79};
  Tensor q0{2, n};
  for (std::size_t i = 0; i < q0.size(); ++i) q0.data()[i] = rng.uniform(300.0, 2000.0);
  Param quota{q0};
  Adam adam{{&quota}, {.lr = 15.0}};
  const Tensor ones{{1.0}, {1.0}};
  double grad_norm = 0.0;

  auto run = [&] {
    const Tensor& pred = pass.forward(quota.value);
    const double total = pred(0, 0) + pred(1, 0);
    quota.zero_grad();
    quota.grad += pass.backward(ones);
    grad_norm = quota.grad.max_abs();
    adam.step();
    return total;
  };

  run();  // sizes every pass buffer, kernel panel and Adam moment once

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const double steady = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(std::isfinite(steady));
  EXPECT_GT(grad_norm, 0.0);
}

// LatencyModel::predict rewinds one tape per thread: once warmed, a call
// recycles every node slot and buffer and touches no heap.
TEST(Autodiff, WarmedLatencyPredictIsAllocationFree) {
  const apps::Topology topo = apps::online_boutique();
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  gnn::LatencyModel model{apps::make_dag(topo), cfg, 5};
  const std::vector<double> w(model.node_count(), 60.0);
  const std::vector<double> q(model.node_count(), 900.0);

  const double warm = model.predict(w, q);
  model.predict(w, q);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const double steady = model.predict(w, q);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(steady, warm);
}

}  // namespace
}  // namespace graf::nn

// ---- Global allocation counting ---------------------------------------------
//
// Every operator-new variant funnels through malloc and bumps the counter;
// every delete variant frees with free. Overriding the full set keeps
// new/delete pairs consistent (also under ASan, which then sees plain
// malloc/free on both sides). glibc's aligned_alloc accepts free().
std::atomic<std::uint64_t> g_alloc_count{0};

namespace {
void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
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

// GCC's heuristic pairs the replaced new/delete against the originals and
// flags free() here; with the full variant set replaced, malloc/free is the
// single real allocator underneath, so the pairing is consistent.
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
