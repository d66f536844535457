// Golden end-to-end fixtures: medium-to-large CUBIS instances with pinned
// results, guarding the warm-started binary search against silent drift.
// Each tests/golden/*.txt file records the instance recipe (seed + sizes —
// the game itself is regenerated, not stored) and the expected solve
// outputs.  Regenerate after an INTENTIONAL behavior change with
//
//   CUBISG_GOLDEN_REGEN=1 ./build/tests/test_golden
//
// which rewrites the fixture files in the source tree.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "games/generators.hpp"

#ifndef CUBISG_GOLDEN_DIR
#error "CUBISG_GOLDEN_DIR must point at tests/golden"
#endif

namespace cubisg::core {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

std::map<std::string, std::string> parse_fixture(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    EXPECT_NE(eq, std::string::npos) << path << ": bad line: " << line;
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

double num(const std::map<std::string, std::string>& kv,
           const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "missing key " << key;
  return std::stod(it->second);
}

struct GoldenCase {
  const char* file;
};

// Print the fixture name, not the pointer bytes gtest would show by
// default: the listed test names must not depend on load addresses.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, SolveMatchesPinnedResult) {
  const std::string path =
      std::string(CUBISG_GOLDEN_DIR) + "/" + GetParam().file;
  auto kv = parse_fixture(path);

  const auto seed = static_cast<std::uint64_t>(num(kv, "seed"));
  const auto targets = static_cast<std::size_t>(num(kv, "targets"));
  const double resources = num(kv, "resources");
  const double width = num(kv, "width");
  Rng rng(seed);
  const games::UncertainGame ug =
      games::random_uncertain_game(rng, targets, resources, width);
  const SuqrIntervalBounds bounds(SuqrWeightIntervals{},
                                  ug.attacker_intervals);

  CubisOptions opt;
  opt.segments = static_cast<std::size_t>(num(kv, "segments"));
  opt.epsilon = num(kv, "epsilon");
  const DefenderSolution sol =
      CubisSolver(opt).solve(SolveContext{ug.game, bounds});
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol.ub - sol.lb, opt.epsilon + 1e-12);

  if (std::getenv("CUBISG_GOLDEN_REGEN") != nullptr) {
    std::ostringstream out;
    out.precision(17);
    out << "# Golden CUBIS fixture — regenerate with CUBISG_GOLDEN_REGEN=1"
        << " ./test_golden\n"
        << "seed=" << seed << "\ntargets=" << targets
        << "\nresources=" << resources << "\nwidth=" << width
        << "\nsegments=" << opt.segments << "\nepsilon=" << opt.epsilon
        << "\nexpected_lb=" << sol.lb << "\nexpected_ub=" << sol.ub
        << "\nexpected_worst_case=" << sol.worst_case_utility
        << "\nexpected_binary_steps=" << sol.binary_steps << "\n";
    std::ofstream rewrite(path);
    ASSERT_TRUE(rewrite.good()) << "cannot rewrite " << path;
    rewrite << out.str();
    GTEST_SKIP() << "regenerated " << path;
  }

  // 1e-6: far below the epsilon + O(1/K) guarantee, far above any honest
  // cross-platform floating-point wobble in a deterministic pipeline.
  EXPECT_NEAR(sol.lb, num(kv, "expected_lb"), 1e-6);
  EXPECT_NEAR(sol.ub, num(kv, "expected_ub"), 1e-6);
  EXPECT_NEAR(sol.worst_case_utility, num(kv, "expected_worst_case"), 1e-6);
  EXPECT_EQ(static_cast<double>(sol.binary_steps),
            num(kv, "expected_binary_steps"));
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, GoldenTest,
    ::testing::Values(GoldenCase{"t50_k5.txt"}, GoldenCase{"t200_k10.txt"},
                      GoldenCase{"t500_k10.txt"}),
    [](const ::testing::TestParamInfo<GoldenCase>& pinfo) {
      std::string name = pinfo.param.file;
      for (char& ch : name) {
        if (ch == '.' || ch == '/') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cubisg::core
