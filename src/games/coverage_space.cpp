#include "games/coverage_space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "common/math_util.hpp"

namespace cubisg::games {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);  // hex float: lossless
  return buf;
}

/// The legacy single-budget projection, kept verbatim: the simplex
/// instance must reproduce the pre-abstraction arithmetic bit-for-bit
/// (the golden fixtures pin every solve routed through it).
std::vector<double> project_simplex_box(std::span<const double> v,
                                        double resources) {
  const std::size_t n = v.size();
  if (n == 0) throw std::invalid_argument("project: empty vector");
  if (resources < 0.0 || resources > static_cast<double>(n)) {
    throw std::invalid_argument("project: resources out of [0, n]");
  }
  // x(tau)_i = clamp(v_i - tau, 0, 1); sum x(tau) is continuous and
  // non-increasing in tau, from n (tau -> -inf) to 0 (tau -> +inf).
  auto sum_at = [&](double tau) {
    double s = 0.0;
    for (double vi : v) s += clamp(vi - tau, 0.0, 1.0);
    return s;
  };
  double lo = -1.0, hi = 1.0;
  {
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    lo = *mn - 1.5;  // sum_at(lo) == n >= resources
    hi = *mx + 0.5;  // sum_at(hi) == 0 <= resources
  }
  for (int iter = 0; iter < 200 && hi - lo > 1e-14; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sum_at(mid) > resources) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double tau = 0.5 * (lo + hi);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp(v[i] - tau, 0.0, 1.0);
  // Tiny residual redistribution so the sum is exact.
  double residual = resources;
  for (double xi : x) residual -= xi;
  for (std::size_t i = 0; i < n && std::abs(residual) > 1e-15; ++i) {
    const double adj = clamp(x[i] + residual, 0.0, 1.0) - x[i];
    x[i] += adj;
    residual -= adj;
  }
  return x;
}

}  // namespace

const char* to_string(CoverageFamily family) {
  switch (family) {
    case CoverageFamily::kSimplex:
      return "simplex";
    case CoverageFamily::kGrouped:
      return "grouped";
    case CoverageFamily::kMultiDefender:
      return "multi-defender";
    case CoverageFamily::kPatrolGraph:
      return "patrol-graph";
  }
  return "unknown";
}

CoverageSpace CoverageSpace::simplex(std::size_t num_targets,
                                     double resources) {
  if (num_targets == 0) {
    throw std::invalid_argument("CoverageSpace: empty game");
  }
  if (resources < 0.0 ||
      resources > static_cast<double>(num_targets)) {
    throw std::invalid_argument(
        "CoverageSpace: resources out of [0, num_targets]");
  }
  CoverageSpace s;
  s.family_ = CoverageFamily::kSimplex;
  s.t_ = num_targets;
  s.budgets_ = {resources};
  return s;
}

CoverageSpace CoverageSpace::grouped(std::vector<std::size_t> groups,
                                     std::vector<double> budgets,
                                     CoverageFamily family) {
  if (groups.empty()) {
    throw std::invalid_argument("CoverageSpace: empty game");
  }
  if (budgets.empty()) {
    throw std::invalid_argument("CoverageSpace: no group budgets");
  }
  std::vector<std::size_t> sizes(budgets.size(), 0);
  for (std::size_t g : groups) {
    if (g >= budgets.size()) {
      throw std::invalid_argument("CoverageSpace: group id out of range");
    }
    ++sizes[g];
  }
  for (std::size_t g = 0; g < budgets.size(); ++g) {
    if (!(budgets[g] >= 0.0)) {
      throw std::invalid_argument("CoverageSpace: negative group budget");
    }
    // Unit caps: a group must be able to absorb its own budget, or the
    // equality projection target would be unreachable.
    if (budgets[g] > static_cast<double>(sizes[g]) + 1e-9) {
      throw std::invalid_argument(
          "CoverageSpace: group budget exceeds group capacity");
    }
  }
  CoverageSpace s;
  s.family_ = family == CoverageFamily::kSimplex ? CoverageFamily::kGrouped
                                                 : family;
  s.t_ = groups.size();
  s.groups_ = std::move(groups);
  s.budgets_ = std::move(budgets);
  return s;
}

CoverageSpace CoverageSpace::multi_defender(
    const std::vector<std::size_t>& block_sizes,
    std::vector<double> budgets) {
  if (block_sizes.size() != budgets.size() || block_sizes.empty()) {
    throw std::invalid_argument(
        "CoverageSpace: one budget per defender block required");
  }
  std::vector<std::size_t> groups;
  for (std::size_t d = 0; d < block_sizes.size(); ++d) {
    if (block_sizes[d] == 0) {
      throw std::invalid_argument("CoverageSpace: empty defender block");
    }
    groups.insert(groups.end(), block_sizes[d], d);
  }
  return grouped(std::move(groups), std::move(budgets),
                 CoverageFamily::kMultiDefender);
}

CoverageSpace CoverageSpace::patrol_graph(std::vector<std::size_t> groups,
                                          std::vector<double> budgets,
                                          std::vector<double> caps) {
  if (caps.size() != groups.size()) {
    throw std::invalid_argument(
        "CoverageSpace: one cap per target required");
  }
  CoverageSpace s = grouped(std::move(groups), std::move(budgets),
                            CoverageFamily::kPatrolGraph);
  std::vector<double> cap_sum(s.budgets_.size(), 0.0);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (!(caps[i] >= 0.0) || caps[i] > 1.0) {
      throw std::invalid_argument("CoverageSpace: cap out of [0, 1]");
    }
    cap_sum[s.groups_[i]] += caps[i];
  }
  for (std::size_t g = 0; g < s.budgets_.size(); ++g) {
    if (s.budgets_[g] > cap_sum[g] + 1e-9) {
      throw std::invalid_argument(
          "CoverageSpace: group budget exceeds reachable capacity");
    }
  }
  s.caps_ = std::move(caps);
  return s;
}

double CoverageSpace::total_budget() const {
  double total = 0.0;
  for (double b : budgets_) total += b;
  return total;
}

std::vector<double> CoverageSpace::uniform_seed() const {
  if (t_ == 0) throw std::invalid_argument("CoverageSpace: empty game");
  if (is_simplex() && groups_.empty()) {
    // The legacy uniform strategy: R/T exactly, no clamp.
    return std::vector<double>(t_,
                               budgets_[0] / static_cast<double>(t_));
  }
  std::vector<std::size_t> sizes(budgets_.size(), 0);
  for (std::size_t i = 0; i < t_; ++i) ++sizes[group_of(i)];
  std::vector<double> x(t_, 0.0);
  for (std::size_t i = 0; i < t_; ++i) {
    const std::size_t g = group_of(i);
    x[i] = std::min(cap(i), budgets_[g] /
                                static_cast<double>(
                                    std::max<std::size_t>(1, sizes[g])));
  }
  return x;
}

std::vector<double> CoverageSpace::greedy_seed(
    std::span<const double> penalties) const {
  if (penalties.size() != t_) {
    throw std::invalid_argument("CoverageSpace: penalties size mismatch");
  }
  std::vector<std::size_t> order(t_);
  std::iota(order.begin(), order.end(), 0u);
  // Most negative (worst) penalty first; equal penalties resolved by
  // target index so the seed is pinned across platforms.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (penalties[a] != penalties[b]) return penalties[a] < penalties[b];
    return a < b;
  });
  std::vector<double> left = budgets_;
  std::vector<double> x(t_, 0.0);
  for (std::size_t idx : order) {
    double& l = left[group_of(idx)];
    const double add = std::min(cap(idx), std::max(0.0, l));
    x[idx] = add;
    l -= add;
  }
  return x;
}

std::vector<double> CoverageSpace::project(std::span<const double> v) const {
  if (v.size() != t_) {
    throw std::invalid_argument("CoverageSpace: vector size mismatch");
  }
  if (is_simplex() && groups_.empty()) {
    return project_simplex_box(v, budgets_[0]);
  }
  // Per-group bisection, the same tau-clamp scheme as the simplex path
  // but with per-target caps: x(tau)_i = clamp(v_i - tau, 0, cap_i).
  std::vector<double> x(t_, 0.0);
  std::vector<std::vector<std::size_t>> members(budgets_.size());
  for (std::size_t i = 0; i < t_; ++i) members[group_of(i)].push_back(i);
  for (std::size_t g = 0; g < budgets_.size(); ++g) {
    if (members[g].empty()) continue;
    auto sum_at = [&](double tau) {
      double s = 0.0;
      for (std::size_t i : members[g]) {
        s += clamp(v[i] - tau, 0.0, cap(i));
      }
      return s;
    };
    double lo = v[members[g].front()];
    double hi = lo;
    for (std::size_t i : members[g]) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    lo -= 1.5;  // sum_at(lo) == sum of caps >= B_g (factory invariant)
    hi += 0.5;  // sum_at(hi) == 0 <= B_g
    for (int iter = 0; iter < 200 && hi - lo > 1e-14; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (sum_at(mid) > budgets_[g]) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const double tau = 0.5 * (lo + hi);
    for (std::size_t i : members[g]) {
      x[i] = clamp(v[i] - tau, 0.0, cap(i));
    }
    double residual = budgets_[g];
    for (std::size_t i : members[g]) residual -= x[i];
    for (std::size_t j = 0;
         j < members[g].size() && std::abs(residual) > 1e-15; ++j) {
      const std::size_t i = members[g][j];
      const double adj = clamp(x[i] + residual, 0.0, cap(i)) - x[i];
      x[i] += adj;
      residual -= adj;
    }
  }
  return x;
}

void CoverageSpace::residuals(std::span<const double> x, double& budget_over,
                              double& box_over) const {
  budget_over = 0.0;
  box_over = 0.0;
  if (x.size() != t_) return;
  std::vector<double> sums(budgets_.size(), 0.0);
  for (std::size_t i = 0; i < t_; ++i) {
    sums[group_of(i)] += x[i];
    box_over = std::max(box_over, std::max(-x[i], x[i] - cap(i)));
  }
  box_over = std::max(box_over, 0.0);
  for (std::size_t g = 0; g < budgets_.size(); ++g) {
    budget_over = std::max(budget_over, sums[g] - budgets_[g]);
  }
  budget_over = std::max(budget_over, 0.0);
}

bool CoverageSpace::is_feasible(std::span<const double> x,
                                double tol) const {
  if (x.size() != t_) return false;
  double budget_over = 0.0;
  double box_over = 0.0;
  residuals(x, budget_over, box_over);
  return budget_over <= tol && box_over <= tol;
}

std::string CoverageSpace::descriptor() const {
  if (is_default() || is_simplex()) return "simplex";
  std::string out = to_string(family_);
  out += ";g=";
  for (std::size_t i = 0; i < t_; ++i) {
    if (i) out += ',';
    out += std::to_string(group_of(i));
  }
  out += ";b=";
  for (std::size_t g = 0; g < budgets_.size(); ++g) {
    if (g) out += ',';
    out += fmt(budgets_[g]);
  }
  if (!caps_.empty()) {
    out += ";c=";
    for (std::size_t i = 0; i < t_; ++i) {
      if (i) out += ',';
      out += fmt(caps_[i]);
    }
  }
  return out;
}

std::optional<CoverageSpace> CoverageSpace::from_descriptor(
    const std::string& text) {
  if (text == "simplex" || text.empty()) return CoverageSpace{};
  std::vector<std::string> sections;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t sep = text.find(';', start);
    if (sep == std::string::npos) {
      sections.push_back(text.substr(start));
      break;
    }
    sections.push_back(text.substr(start, sep - start));
    start = sep + 1;
  }
  if (sections.size() < 3) return std::nullopt;
  CoverageFamily family;
  if (sections[0] == "grouped") {
    family = CoverageFamily::kGrouped;
  } else if (sections[0] == "multi-defender") {
    family = CoverageFamily::kMultiDefender;
  } else if (sections[0] == "patrol-graph") {
    family = CoverageFamily::kPatrolGraph;
  } else {
    return std::nullopt;
  }
  std::vector<std::size_t> groups;
  std::vector<double> budgets;
  std::vector<double> caps;
  for (std::size_t s = 1; s < sections.size(); ++s) {
    const std::string& sec = sections[s];
    if (sec.size() < 2 || sec[1] != '=') return std::nullopt;
    const char kind = sec[0];
    std::size_t pos = 2;
    while (pos <= sec.size()) {
      std::size_t sep = sec.find(',', pos);
      if (sep == std::string::npos) sep = sec.size();
      const std::string item = sec.substr(pos, sep - pos);
      if (item.empty()) return std::nullopt;
      char* end = nullptr;
      if (kind == 'g') {
        const unsigned long long g = std::strtoull(item.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') return std::nullopt;
        groups.push_back(static_cast<std::size_t>(g));
      } else if (kind == 'b' || kind == 'c') {
        const double v = std::strtod(item.c_str(), &end);
        if (end == nullptr || *end != '\0') return std::nullopt;
        (kind == 'b' ? budgets : caps).push_back(v);
      } else {
        return std::nullopt;
      }
      pos = sep + 1;
    }
  }
  try {
    if (family == CoverageFamily::kPatrolGraph || !caps.empty()) {
      return patrol_graph(std::move(groups), std::move(budgets),
                          std::move(caps));
    }
    return grouped(std::move(groups), std::move(budgets), family);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace cubisg::games
