// Workload definitions and seeded input generation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "engine/journal.hpp"
#include "games/generators.hpp"

namespace perfbench {

namespace {

/// Payoff interval width: `cubisg generate`'s default.
constexpr double kWidth = 2.0;

// cold-families: every (family, size) cell equally often.  The sizes put
// the simplex DP value table (T+1) x (0.3 T K + 1) doubles at 0.5, 1.9
// and 7.7 MB, on both sides of a 2 MiB per-core L2.
constexpr std::size_t kColdSizes[] = {100, 200, 400};
constexpr std::size_t kColdPerCell = 160;

// repeat-transplant: a Zipf-popular pool of base scenarios, larger than
// the cache, so every run has hits, inserts and evictions.
constexpr std::size_t kRepeatTargets = 200;
constexpr std::size_t kRepeatBases = 192;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kRepeatStream = 16384;
constexpr double kPerturbShare = 0.20;  // one-target perturbations
constexpr double kFreshShare = 0.05;    // never-seen scenarios
constexpr std::size_t kRepeatCacheEntries = 64;
/// Untimed jobs that fill the cache before timing starts.
constexpr std::size_t kRepeatPrimeJobs = 512;
/// Seeds the request pattern, which is part of the workload, not of its
/// inputs: which popularity rank or kind of job each request is.  The
/// workload seed draws the scenarios behind them.  So every seed gives the
/// same sequence of hits, perturbations and fresh scenarios, up to the
/// cache's digest-chosen shards, and its mix of work per job.
constexpr std::uint64_t kRepeatPatternSeed = 0x7A1F5EEDULL;

// small-isolated: tiny solves, so per-job fixed costs dominate.
constexpr std::size_t kSmallTargets = 24;
constexpr std::size_t kSmallPool = 4096;

std::shared_ptr<const cg::behavior::SuqrIntervalBounds> bounds_of(
    const cg::behavior::Scenario& scenario) {
  return std::make_shared<cg::behavior::SuqrIntervalBounds>(
      scenario.make_bounds());
}

Problem wrap(cg::behavior::Scenario scenario, Family family) {
  Problem p;
  auto owned = std::make_shared<cg::behavior::Scenario>(std::move(scenario));
  p.bounds = bounds_of(*owned);
  p.scenario = std::move(owned);
  p.family = family;
  return p;
}

/// The base problem with one target's attacker reward interval (and its
/// midpoint) shifted up: a new fingerprint whose other T-1 target blocks
/// match the base bitwise, i.e. a same-compat transplant candidate.
Problem perturb(const Problem& base, cg::Rng& rng) {
  cg::behavior::Scenario s = *base.scenario;
  const std::size_t j = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(base.targets()) - 1));
  const double shift = rng.uniform(0.05, 0.30);
  std::vector<cg::games::TargetPayoffs> payoffs = s.game.game.payoffs();
  payoffs[j].attacker_reward += shift;
  cg::Interval& reward = s.game.attacker_intervals[j].attacker_reward;
  reward = cg::Interval(reward.lo() + shift, reward.hi() + shift);
  s.game.game = cg::games::SecurityGame(std::move(payoffs),
                                        s.game.game.resources());
  return wrap(std::move(s), base.family);
}

template <typename T>
void shuffle(std::vector<T>& v, cg::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

Inputs cold_families(cg::Rng& rng) {
  Inputs in;
  for (Family f : kAllFamilies) {
    for (std::size_t t : kColdSizes) {
      for (std::size_t k = 0; k < kColdPerCell; ++k) {
        in.problems.push_back(make_problem(f, t, rng));
      }
    }
  }
  // Each run of nine consecutive jobs visits every cell once, in a seeded
  // order, so however many jobs a timed phase completes, its mix of cells
  // (and so its work per job) barely depends on the seed.
  std::vector<std::uint32_t> cells(std::size(kAllFamilies) *
                                   std::size(kColdSizes));
  std::iota(cells.begin(), cells.end(), 0u);
  for (std::size_t k = 0; k < kColdPerCell; ++k) {
    shuffle(cells, rng);
    for (std::uint32_t c : cells) {
      in.stream.push_back(static_cast<std::uint32_t>(c * kColdPerCell + k));
    }
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    in.warmup.push_back(make_problem(Family::kSimplex, 200, rng));
  }
  return in;
}

Inputs repeat_transplant(cg::Rng& rng) {
  Inputs in;
  for (std::size_t b = 0; b < kRepeatBases; ++b) {
    const Family f = b % 2 == 0 ? Family::kSimplex : Family::kMultiDefender;
    in.problems.push_back(make_problem(f, kRepeatTargets, rng));
  }
  cg::Rng pattern(kRepeatPatternSeed);
  // Popularity rank -> base, shuffled so rank is unrelated to family.
  std::vector<std::uint32_t> by_rank(kRepeatBases);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  shuffle(by_rank, pattern);
  std::vector<double> cdf(kRepeatBases);
  double total = 0.0;
  for (std::size_t r = 0; r < kRepeatBases; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  const auto popular_base = [&]() -> std::uint32_t {
    const double u = pattern.uniform() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const std::size_t r = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), kRepeatBases - 1);
    return by_rank[r];
  };
  in.stream.reserve(kRepeatStream);
  for (std::size_t i = 0; i < kRepeatStream; ++i) {
    const double u = pattern.uniform();
    if (u < kFreshShare) {
      const Family f = pattern.uniform() < 0.5 ? Family::kSimplex
                                           : Family::kMultiDefender;
      in.problems.push_back(make_problem(f, kRepeatTargets, rng));
      in.stream.push_back(
          static_cast<std::uint32_t>(in.problems.size() - 1));
    } else if (u < kFreshShare + kPerturbShare) {
      const Problem& base = in.problems[popular_base()];
      in.problems.push_back(perturb(base, rng));
      in.stream.push_back(
          static_cast<std::uint32_t>(in.problems.size() - 1));
    } else {
      in.stream.push_back(popular_base());
    }
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    in.warmup.push_back(make_problem(Family::kSimplex, kRepeatTargets, rng));
  }
  return in;
}

Inputs small_isolated(cg::Rng& rng) {
  Inputs in;
  for (std::size_t k = 0; k < kSmallPool; ++k) {
    in.problems.push_back(make_problem(Family::kSimplex, kSmallTargets, rng));
  }
  in.stream.resize(in.problems.size());
  std::iota(in.stream.begin(), in.stream.end(), 0u);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    in.warmup.push_back(make_problem(Family::kSimplex, kSmallTargets, rng));
  }
  return in;
}

/// Appends the raw bytes of `v` to `out`.
template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// FNV-1a 64 over the digest so far, then every generated number and the
/// coverage descriptor of `p`.  Chaining one problem at a time keeps the
/// hashed bytes small: all the inputs' bytes at once would show in
/// peak_rss_mb.
std::uint64_t chain_problem(std::uint64_t digest, const Problem& p) {
  const cg::behavior::Scenario& s = *p.scenario;
  std::string out;
  put(out, digest);
  put(out, static_cast<std::uint64_t>(p.family));
  put(out, s.game.game.resources());
  for (const cg::games::TargetPayoffs& t : s.game.game.payoffs()) {
    put(out, t.attacker_reward);
    put(out, t.attacker_penalty);
    put(out, t.defender_reward);
    put(out, t.defender_penalty);
  }
  for (const cg::games::IntervalPayoffs& iv : s.game.attacker_intervals) {
    put(out, iv.attacker_reward.lo());
    put(out, iv.attacker_reward.hi());
    put(out, iv.attacker_penalty.lo());
    put(out, iv.attacker_penalty.hi());
  }
  for (const cg::Interval* w : {&s.weights.w1, &s.weights.w2, &s.weights.w3}) {
    put(out, w->lo());
    put(out, w->hi());
  }
  put(out, static_cast<std::uint64_t>(s.mode));
  const std::string coverage =
      s.coverage.is_default() ? std::string() : s.coverage.descriptor();
  put(out, static_cast<std::uint64_t>(coverage.size()));
  out += coverage;
  return cg::engine::fnv1a64(out.data(), out.size());
}

}  // namespace

const char* family_name(Family family) {
  switch (family) {
    case Family::kSimplex:
      return "simplex";
    case Family::kMultiDefender:
      return "multi-defender";
    case Family::kPatrolGraph:
      return "patrol-graph";
  }
  return "?";
}

cg::engine::SolveJob Problem::job(std::string tag) const {
  cg::engine::SolveJob job;
  job.game = std::shared_ptr<const cg::games::SecurityGame>(
      scenario, &scenario->game.game);
  job.bounds = bounds;
  job.scenario = scenario;
  job.tag = std::move(tag);
  return job;
}

Problem make_problem(Family family, std::size_t targets, cg::Rng& rng) {
  // Family shapes as `cubisg generate` builds them: simplex with
  // R = 0.3 T; multi-defender blocks of 25 targets with 7.5 resources
  // each; a 20-location patrol path over T/20 time slots.
  cg::games::FamilyGame fg = [&]() -> cg::games::FamilyGame {
    switch (family) {
      case Family::kMultiDefender:
        return cg::games::multi_defender_uncertain_game(rng, targets / 25,
                                                        25, 7.5, kWidth);
      case Family::kPatrolGraph:
        return cg::games::patrol_graph_uncertain_game(rng, 20, targets / 20,
                                                      3.0, kWidth);
      case Family::kSimplex:
        break;
    }
    return {cg::games::random_uncertain_game(
                rng, targets, 0.3 * static_cast<double>(targets), kWidth),
            cg::games::CoverageSpace{}};
  }();
  return wrap(cg::behavior::Scenario{std::move(fg.game),
                                     cg::behavior::SuqrWeightIntervals{},
                                     cg::behavior::IntervalMode::kExactBox,
                                     std::move(fg.coverage)},
              family);
}

const std::vector<Workload>& workloads() {
  using cg::engine::CacheMode;
  using cg::engine::IsolationMode;
  static const std::vector<Workload> all = {
      {"cold-families", IsolationMode::kThread, CacheMode::kOff, 0, 0,
       false, false},
      {"repeat-transplant", IsolationMode::kThread, CacheMode::kTransplant,
       kRepeatCacheEntries, kRepeatPrimeJobs, false, false},
      {"small-isolated", IsolationMode::kProcess, CacheMode::kOff, 0, 0, true,
       true},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

cg::core::SolverSpec solver_spec() { return cg::core::SolverSpec{}; }

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  // The workload name salts the seed so workloads never share a stream.
  cg::Rng rng(seed ^ cg::engine::fnv1a64(workload.name,
                                         std::strlen(workload.name)));
  const std::string name = workload.name;
  if (name == "cold-families") return cold_families(rng);
  if (name == "repeat-transplant") return repeat_transplant(rng);
  if (name == "small-isolated") return small_isolated(rng);
  throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t inputs_digest(const Inputs& inputs) {
  std::uint64_t digest = 0;
  for (const Problem& p : inputs.problems) digest = chain_problem(digest, p);
  std::string stream;
  put(stream, digest);
  for (std::uint32_t i : inputs.stream) {
    put(stream, static_cast<std::uint64_t>(i));
  }
  digest = cg::engine::fnv1a64(stream.data(), stream.size());
  for (const Problem& p : inputs.warmup) digest = chain_problem(digest, p);
  return digest;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
