// Figure 12: heat-map of the configuration solver's loss (Eq. 5) restricted
// to two services' resources, the rest held at the solver's optimum. Paper:
// the landscape is smooth with a single valley along the SLO-feasibility
// boundary, which is why plain gradient descent finds the optimum.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/configuration_solver.h"

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  core::ConfigurationSolver solver{stack.predictor->model()};

  const auto workload = stack.node_workload(stack.base_qps);
  auto solved =
      solver.solve(workload, stack.default_slo_ms, stack.space.lo, stack.space.hi);

  // Vary recommendation (idx 4) and cart (idx 2), the two most
  // latency-sensitive services of Online Boutique.
  const int a = 4;
  const int b = 2;
  constexpr int kGrid = 9;

  Table table{"Figure 12: Eq.5 loss over (recommendation, cart) quota"};
  std::vector<std::string> hdr{"rec\\cart (mc)"};
  for (int j = 0; j < kGrid; ++j) {
    const double qb = stack.space.lo[b] +
                      (stack.space.hi[b] - stack.space.lo[b]) * j / (kGrid - 1.0);
    hdr.push_back(Table::num(qb, 0));
  }
  table.header(hdr);

  double min_loss = 1e300;
  std::pair<int, int> argmin{0, 0};
  for (int i = 0; i < kGrid; ++i) {
    const double qa = stack.space.lo[a] +
                      (stack.space.hi[a] - stack.space.lo[a]) * i / (kGrid - 1.0);
    std::vector<std::string> row{Table::num(qa, 0)};
    for (int j = 0; j < kGrid; ++j) {
      const double qb = stack.space.lo[b] +
                        (stack.space.hi[b] - stack.space.lo[b]) * j / (kGrid - 1.0);
      auto quota = solved.quota;
      quota[a] = qa;
      quota[b] = qb;
      const double loss =
          solver.loss_at(workload, stack.default_slo_ms, quota, stack.space.hi);
      if (loss < min_loss) {
        min_loss = loss;
        argmin = {i, j};
      }
      row.push_back(Table::num(loss, 3));
    }
    table.row(row);
  }
  table.print(std::cout);

  std::cout << "Solver optimum: rec=" << Table::num(solved.quota[a], 0)
            << " mc, cart=" << Table::num(solved.quota[b], 0)
            << " mc (predicted p99 " << Table::num(solved.predicted_ms, 0)
            << " ms at SLO " << Table::num(stack.default_slo_ms, 0) << " ms)\n";
  std::cout << "Grid minimum at rec index " << argmin.first << ", cart index "
            << argmin.second << " (loss " << Table::num(min_loss, 3) << ")\n";
  std::cout << "Shape check (paper): loss rises smoothly toward the SLO-violating\n"
               "corner (low quotas) and grows linearly with total quota elsewhere —\n"
               "a single valley, friendly to gradient descent.\n";
  return 0;
}
