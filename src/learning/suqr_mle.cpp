#include "learning/suqr_mle.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/errors.hpp"
#include "common/math_util.hpp"
#include "games/coverage_space.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "parallel/parallel_for.hpp"

namespace cubisg::learning {

namespace {

/// Per-target features (x_i, Ra_i, Pa_i) for one observation.
struct Features {
  double x, ra, pa;
  double score(const behavior::SuqrWeights& w) const {
    return w.w1 * x + w.w2 * ra + w.w3 * pa;
  }
};

/// Log-likelihood, gradient and (negated) Hessian at w over `data`.
struct LlEval {
  double ll = 0.0;
  double grad[3] = {0.0, 0.0, 0.0};
  double neg_hess[3][3] = {{0.0}};
};

LlEval evaluate(const games::SecurityGame& game,
                std::span<const AttackObservation> data,
                const behavior::SuqrWeights& w, double ridge) {
  const std::size_t n = game.num_targets();
  LlEval out;
  std::vector<double> scores(n);
  std::vector<double> probs(n);
  for (const AttackObservation& obs : data) {
    // Scores and softmax probabilities.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& p = game.target(i);
      scores[i] = w.w1 * obs.coverage[i] + w.w2 * p.attacker_reward +
                  w.w3 * p.attacker_penalty;
    }
    const double lse = log_sum_exp(scores);
    for (std::size_t i = 0; i < n; ++i) {
      probs[i] = std::exp(scores[i] - lse);
    }
    out.ll += scores[obs.target] - lse;

    // Feature expectations under the model: grad = f(target) - E[f].
    double ef[3] = {0.0, 0.0, 0.0};
    double eff[3][3] = {{0.0}};
    for (std::size_t i = 0; i < n; ++i) {
      const auto& p = game.target(i);
      const double f[3] = {obs.coverage[i], p.attacker_reward,
                           p.attacker_penalty};
      for (int a = 0; a < 3; ++a) {
        ef[a] += probs[i] * f[a];
        for (int b = 0; b < 3; ++b) eff[a][b] += probs[i] * f[a] * f[b];
      }
    }
    const auto& pt = game.target(obs.target);
    const double ft[3] = {obs.coverage[obs.target], pt.attacker_reward,
                          pt.attacker_penalty};
    for (int a = 0; a < 3; ++a) {
      out.grad[a] += ft[a] - ef[a];
      // -Hessian of the log-likelihood = covariance of features.
      for (int b = 0; b < 3; ++b) {
        out.neg_hess[a][b] += eff[a][b] - ef[a] * ef[b];
      }
    }
  }
  // Ridge term: -ridge/2 * ||w||^2.
  const double wv[3] = {w.w1, w.w2, w.w3};
  for (int a = 0; a < 3; ++a) {
    out.ll -= 0.5 * ridge * wv[a] * wv[a];
    out.grad[a] -= ridge * wv[a];
    out.neg_hess[a][a] += ridge;
  }
  return out;
}

behavior::SuqrWeights step(const behavior::SuqrWeights& w,
                           const double d[3], double t) {
  return {w.w1 + t * d[0], w.w2 + t * d[1], w.w3 + t * d[2]};
}

}  // namespace

SuqrMleResult fit_suqr(const games::SecurityGame& game,
                       std::span<const AttackObservation> data,
                       const SuqrMleOptions& options) {
  if (data.empty()) {
    throw InvalidModelError("fit_suqr: no observations");
  }
  const std::size_t n = game.num_targets();
  for (const AttackObservation& obs : data) {
    if (obs.coverage.size() != n || obs.target >= n) {
      throw InvalidModelError("fit_suqr: observation shape mismatch");
    }
  }

  SuqrMleResult out;
  behavior::SuqrWeights w = options.init;
  LlEval cur = evaluate(game, data, w, options.ridge);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    out.iterations = iter + 1;
    const double gnorm = std::sqrt(cur.grad[0] * cur.grad[0] +
                                   cur.grad[1] * cur.grad[1] +
                                   cur.grad[2] * cur.grad[2]);
    if (gnorm < options.tol * (1.0 + std::abs(cur.ll))) {
      out.converged = true;
      break;
    }
    // Newton direction: solve (-H) d = grad.
    Matrix h(3, 3);
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) h(a, b) = cur.neg_hess[a][b];
    }
    double d[3];
    LuFactorization lu(h);
    if (!lu.is_singular()) {
      const auto sol = lu.solve(std::vector<double>{
          cur.grad[0], cur.grad[1], cur.grad[2]});
      d[0] = sol[0];
      d[1] = sol[1];
      d[2] = sol[2];
    } else {
      d[0] = cur.grad[0];  // gradient fallback
      d[1] = cur.grad[1];
      d[2] = cur.grad[2];
    }
    // Backtracking line search on the concave objective.
    double t = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 40; ++bt) {
      behavior::SuqrWeights trial = step(w, d, t);
      LlEval te = evaluate(game, data, trial, options.ridge);
      if (te.ll > cur.ll) {
        w = trial;
        cur = te;
        improved = true;
        break;
      }
      t *= 0.5;
    }
    if (!improved) {
      out.converged = true;  // at numeric resolution of the line search
      break;
    }
  }
  out.weights = w;
  out.log_likelihood = cur.ll;
  return out;
}

behavior::SuqrWeightIntervals bootstrap_weight_intervals(
    const games::SecurityGame& game,
    std::span<const AttackObservation> data,
    const SuqrMleOptions& mle_options, const BootstrapOptions& options) {
  if (options.resamples < 2) {
    throw InvalidModelError("bootstrap: need at least 2 resamples");
  }
  if (!(options.confidence > 0.0) || options.confidence >= 1.0) {
    throw InvalidModelError("bootstrap: confidence must be in (0, 1)");
  }

  // Derive an independent RNG stream per resample (deterministic given the
  // seed, order-independent across the pool's threads).
  Rng root(options.seed);
  std::vector<std::uint64_t> seeds(options.resamples);
  for (auto& s : seeds) s = root();

  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::global();
  std::vector<behavior::SuqrWeights> fits = parallel_map(
      pool, static_cast<std::size_t>(options.resamples),
      [&](std::size_t r) {
        Rng rng(seeds[r]);
        std::vector<AttackObservation> sample(data.size());
        for (auto& obs : sample) {
          obs = data[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(data.size()) - 1))];
        }
        return fit_suqr(game, sample, mle_options).weights;
      });

  // Percentile interval per weight.
  const double alpha = 0.5 * (1.0 - options.confidence);
  auto percentile_interval = [&](auto getter) {
    std::vector<double> v(fits.size());
    for (std::size_t i = 0; i < fits.size(); ++i) v[i] = getter(fits[i]);
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
      const double pos = q * static_cast<double>(v.size() - 1);
      const std::size_t i0 = static_cast<std::size_t>(pos);
      const std::size_t i1 = std::min(i0 + 1, v.size() - 1);
      const double frac = pos - static_cast<double>(i0);
      return v[i0] * (1.0 - frac) + v[i1] * frac;
    };
    return std::pair<double, double>{at(alpha), at(1.0 - alpha)};
  };

  auto [w1_lo, w1_hi] = percentile_interval(
      [](const behavior::SuqrWeights& w) { return w.w1; });
  auto [w2_lo, w2_hi] = percentile_interval(
      [](const behavior::SuqrWeights& w) { return w.w2; });
  auto [w3_lo, w3_hi] = percentile_interval(
      [](const behavior::SuqrWeights& w) { return w.w3; });

  // Enforce the model's sign structure: w1 strictly negative, w2/w3
  // non-negative (SuqrIntervalBounds validates these).
  constexpr double kEps = 1e-6;
  w1_hi = std::min(w1_hi, -kEps);
  w1_lo = std::min(w1_lo, w1_hi - kEps);
  w2_lo = std::max(w2_lo, 0.0);
  w2_hi = std::max(w2_hi, w2_lo);
  w3_lo = std::max(w3_lo, 0.0);
  w3_hi = std::max(w3_hi, w3_lo);

  behavior::SuqrWeightIntervals out;
  out.w1 = Interval(w1_lo, w1_hi);
  out.w2 = Interval(w2_lo, w2_hi);
  out.w3 = Interval(w3_lo, w3_hi);
  return out;
}

std::vector<AttackObservation> simulate_attack_data(
    const games::SecurityGame& game, const behavior::SuqrWeights& truth,
    std::size_t count, Rng& rng) {
  const std::size_t n = game.num_targets();
  behavior::SuqrModel model(truth, game);
  const games::CoverageSpace space =
      games::CoverageSpace::simplex(n, game.resources());
  std::vector<AttackObservation> data;
  data.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    // A fresh random feasible coverage per observation (the defender
    // varies patrols day to day, which is what identifies w1).
    std::vector<double> raw(n);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    std::vector<double> x = space.project(raw);
    std::vector<double> q = behavior::attack_probabilities(model, x);
    double u = rng.uniform();
    std::size_t target = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (u < q[i]) {
        target = i;
        break;
      }
      u -= q[i];
    }
    data.push_back({std::move(x), target});
  }
  return data;
}

}  // namespace cubisg::learning
