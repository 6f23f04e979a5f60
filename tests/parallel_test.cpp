// ThreadPool unit behaviour plus the DESIGN.md §3.7 determinism contract:
// data-parallel training and multi-start solving must be *bit-identical*
// at any thread count, because work decomposition and random streams are
// pure functions of configuration — threads are only executors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/configuration_solver.h"
#include "gnn/batched_latency_model.h"
#include "gnn/latency_model.h"
#include "nn/tensor.h"

namespace graf {
namespace {

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, SizeOnePoolRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.parallel_for(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitDeliversResultThroughFuture) {
  ThreadPool pool{2};
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionByIndex) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(100, [](std::size_t i) {
      if (i == 7 || i == 63)
        throw std::runtime_error{"boom " + std::to_string(i)};
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
}

// ---- Reentrancy: parallel_for inside a pool task ---------------------------
//
// The fleet server fans plan computation over the pool, and a tenant's
// multi-start solver fans out again from inside that task. The caller-
// participates design makes the nesting deadlock-free: the inner call's own
// drain loop claims every index no helper has taken, so it completes even
// when every worker is busy with outer work. These tests pin that contract.

TEST(ThreadPool, NestedParallelForCompletesWithAllWorkersBusy) {
  for (const std::size_t size : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool{size};
    // More outer tasks than workers, so some inner calls necessarily run
    // while every worker is occupied by outer work.
    constexpr std::size_t kOuter = 8, kInner = 16;
    std::vector<std::atomic<int>> sums(kOuter);
    pool.parallel_for(kOuter, [&](std::size_t i) {
      pool.parallel_for(kInner, [&, i](std::size_t j) {
        sums[i].fetch_add(static_cast<int>(j + 1));
      });
    });
    for (const auto& s : sums)
      EXPECT_EQ(s.load(), kInner * (kInner + 1) / 2)
          << "pool size " << size;
  }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptionByIndex) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(6, [&](std::size_t i) {
      pool.parallel_for(8, [&, i](std::size_t j) {
        // Only outer index 2 faults; its first-by-index inner failure (j=3)
        // must surface through both levels.
        if (i == 2 && (j == 3 || j == 5))
          throw std::runtime_error{"inner " + std::to_string(j)};
      });
    });
    FAIL() << "expected nested rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner 3");
  }
}

TEST(ThreadPool, ConcurrentParallelForFromSubmittedTasks) {
  // Two pool tasks run independent parallel_fors on the same pool at once;
  // each has its own shared state, so they interleave without crosstalk.
  // (Blocking on these futures is safe here: the joining thread is the
  // main thread, not a pool worker — see the submit() warning.)
  ThreadPool pool{4};
  constexpr std::size_t n = 256;
  auto count = [&pool] {
    std::atomic<std::size_t> hits{0};
    pool.parallel_for(n, [&](std::size_t) { hits.fetch_add(1); });
    return hits.load();
  };
  auto f1 = pool.submit(count);
  auto f2 = pool.submit(count);
  EXPECT_EQ(f1.get(), n);
  EXPECT_EQ(f2.get(), n);
}

TEST(ThreadPool, ConfiguredThreadsReadsEnv) {
  ::setenv("GRAF_THREADS", "3", 1);
  EXPECT_EQ(configured_threads(), 3u);
  ::setenv("GRAF_THREADS", "0", 1);  // nonsense values fall back to >= 1
  EXPECT_GE(configured_threads(), 1u);
  ::unsetenv("GRAF_THREADS");
  EXPECT_GE(configured_threads(), 1u);
}

// ---- §3.7 determinism contract ---------------------------------------------

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_edge(0, 1);
  return d;
}

gnn::Dataset toy_dataset(int n) {
  Rng rng{57};
  gnn::Dataset data;
  for (int i = 0; i < n; ++i) {
    gnn::Sample s;
    const double w = rng.uniform(20.0, 80.0);
    s.workload = {w, w};
    s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
    s.latency_ms =
        40.0 * 1000.0 / s.quota[0] + 80.0 * 1000.0 / s.quota[1] + 0.8 * w;
    data.push_back(std::move(s));
  }
  return data;
}

/// Train a fresh model at the given thread count and return a probe-grid of
/// predictions (equal predictions on the grid <=> equal parameters for all
/// practical purposes, and the comparison is exact, not approximate).
std::vector<double> train_and_probe(std::size_t threads) {
  set_global_threads(threads);
  gnn::MpnnConfig mcfg;
  mcfg.embed_dim = 8;
  mcfg.mpnn_hidden = 8;
  mcfg.readout_hidden = 16;
  mcfg.dropout_p = 0.1;  // exercises the per-(seed, iter, shard) rng streams
  gnn::LatencyModel model{chain2(), mcfg, 29};
  gnn::TrainConfig tc;
  tc.iterations = 120;
  tc.batch_size = 64;
  tc.shard_rows = 16;  // several shards per step even at this batch size
  tc.lr = 2e-3;
  tc.eval_every = 1000;
  tc.seed = 7;
  model.fit(toy_dataset(400), {}, tc);
  std::vector<double> probes;
  for (double w : {25.0, 50.0, 75.0})
    for (double q : {400.0, 900.0, 1700.0}) {
      std::vector<double> workload{w, w};
      std::vector<double> quota{q, 2100.0 - q};
      probes.push_back(model.predict(workload, quota));
    }
  set_global_threads(0);
  return probes;
}

TEST(ParallelDeterminism, TrainingIsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> p1 = train_and_probe(1);
  const std::vector<double> p2 = train_and_probe(2);
  const std::vector<double> p8 = train_and_probe(8);
  ASSERT_EQ(p1.size(), p2.size());
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p2[i]) << "probe " << i;
    EXPECT_EQ(p1[i], p8[i]) << "probe " << i;
  }
}

/// One deterministically trained model shared by the solver tests.
gnn::LatencyModel& parallel_solver_model() {
  static gnn::LatencyModel model = [] {
    set_global_threads(1);
    gnn::MpnnConfig mcfg;
    mcfg.embed_dim = 8;
    mcfg.mpnn_hidden = 8;
    mcfg.readout_hidden = 24;
    mcfg.dropout_p = 0.0;
    gnn::LatencyModel m{chain2(), mcfg, 13};
    gnn::TrainConfig tc;
    tc.iterations = 800;
    tc.batch_size = 64;
    tc.lr = 2e-3;
    tc.eval_every = 1000;
    m.fit(toy_dataset(1200), {}, tc);
    set_global_threads(0);
    return m;
  }();
  return model;
}

core::SolverResult solve_at(std::size_t threads, std::size_t starts) {
  set_global_threads(threads);
  core::SolverConfig scfg;
  scfg.multi_starts = starts;
  core::ConfigurationSolver solver{parallel_solver_model(), scfg};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> lo{300.0, 300.0};
  std::vector<double> hi{2000.0, 2000.0};
  const core::SolverResult res = solver.solve(w, 180.0, lo, hi);
  set_global_threads(0);
  return res;
}

TEST(ParallelDeterminism, MultiStartSolveIsBitIdenticalAcrossThreadCounts) {
  // The K starts are rows of one tape, so the thread count can't matter:
  // 1 == 2 == 8 threads, bit for bit.
  const auto r1 = solve_at(1, 6);
  const auto r2 = solve_at(2, 6);
  const auto r8 = solve_at(8, 6);
  ASSERT_EQ(r1.quota.size(), 2u);
  for (std::size_t i = 0; i < r1.quota.size(); ++i) {
    EXPECT_EQ(r1.quota[i], r2.quota[i]) << i;
    EXPECT_EQ(r1.quota[i], r8.quota[i]) << i;
  }
  EXPECT_EQ(r1.predicted_ms, r2.predicted_ms);
  EXPECT_EQ(r1.predicted_ms, r8.predicted_ms);
  EXPECT_EQ(r1.loss, r2.loss);
  EXPECT_EQ(r1.loss, r8.loss);
}

TEST(ParallelDeterminism, BatchedAndConcurrentSolvesAgreeAtAnyThreadCount) {
  // Solves running concurrently on an 8-thread pool (one solver per task,
  // one shared model) match the same requests stacked into one solve_batch
  // tape on a single thread, bit for bit: descents freeze the shared
  // weights, and stacked rows never mix.
  core::SolverConfig scfg;
  scfg.multi_starts = 6;
  const std::vector<double> lo{300.0, 300.0};
  const std::vector<double> hi{2000.0, 2000.0};
  const std::vector<std::vector<double>> workloads{
      {40.0, 40.0}, {50.0, 60.0}, {70.0, 45.0}, {55.0, 55.0}};
  // Trained here, not lazily inside a pool task: training resizes the pool.
  gnn::LatencyModel& model = parallel_solver_model();

  set_global_threads(8);
  std::vector<core::SolverResult> concurrent(workloads.size());
  global_pool().parallel_for(workloads.size(), [&](std::size_t i) {
    core::ConfigurationSolver solver{model, scfg};
    concurrent[i] = solver.solve(workloads[i], 180.0, lo, hi);
  });
  set_global_threads(1);
  gnn::BatchedLatencyModel batched{model, scfg.multi_starts};
  std::vector<core::BatchItem> items;
  for (const auto& w : workloads) items.push_back({w, 180.0, lo, hi});
  const auto stacked = core::ConfigurationSolver::solve_batch(batched, scfg, items);
  set_global_threads(0);

  ASSERT_EQ(stacked.size(), concurrent.size());
  for (std::size_t t = 0; t < stacked.size(); ++t) {
    const core::SolverResult& b = stacked[t].result;
    ASSERT_EQ(b.quota.size(), concurrent[t].quota.size());
    for (std::size_t i = 0; i < b.quota.size(); ++i)
      EXPECT_EQ(b.quota[i], concurrent[t].quota[i]) << "tenant " << t << " service " << i;
    EXPECT_EQ(b.loss, concurrent[t].loss) << "tenant " << t;
    EXPECT_EQ(b.predicted_ms, concurrent[t].predicted_ms) << "tenant " << t;
    EXPECT_EQ(b.iterations, concurrent[t].iterations) << "tenant " << t;
  }
}

TEST(ParallelDeterminism, BlockedKernelsIgnoreThreadCount) {
  // The PR-5 GEMM kernels are single-tape serial code; the global pool
  // setting must not leak into them (guards against a future "parallel
  // matmul" accidentally breaking the §3.7 contract).
  Rng rng{67};
  nn::Tensor a{23, 37};
  nn::Tensor b{37, 17};
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1, 1);
  set_global_threads(1);
  const nn::Tensor c1 = nn::matmul(a, b);
  set_global_threads(8);
  const nn::Tensor c8 = nn::matmul(a, b);
  set_global_threads(0);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_EQ(c1.data()[i], c8.data()[i]);
}

TEST(ParallelDeterminism, MultiStartNeverLosesToSingleStart) {
  // Extra starts may only improve (or tie) the feasible objective.
  const auto single = solve_at(4, 1);
  const auto multi = solve_at(4, 6);
  const double single_total = single.quota[0] + single.quota[1];
  const double multi_total = multi.quota[0] + multi.quota[1];
  if (single.predicted_ms <= 180.0 && multi.predicted_ms <= 180.0) {
    EXPECT_LE(multi_total, single_total * 1.05);
  }
}

}  // namespace
}  // namespace graf
