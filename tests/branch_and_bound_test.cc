#include "core/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "geom/rng.h"

namespace decaylib::core {
namespace {

// A random instance: weights with ties and zeros, random pairwise
// conflicts, and a knapsack (integer sizes under a capacity) as the
// hereditary oracle.
struct RandomProblem {
  int k = 0;
  bool most_conflicted = false;
  std::vector<double> weights;
  std::vector<char> conflict;  // k x k, symmetric
  std::vector<double> sizes;
  double capacity = 0.0;

  double Weight(int i) const { return weights[static_cast<std::size_t>(i)]; }
  std::size_t Pivot(std::span<const int> active) const {
    return most_conflicted ? MostConflicted(*this, active) : 0;
  }
  bool Compatible(int i, int j) const {
    return conflict[static_cast<std::size_t>(i * k + j)] == 0;
  }
  bool Admits(std::span<const int> chosen) const {
    double used = 0.0;
    for (int i : chosen) used += sizes[static_cast<std::size_t>(i)];
    return used <= capacity;
  }
};

RandomProblem Draw(geom::Rng& rng, bool most_conflicted) {
  RandomProblem p;
  p.k = rng.IntIn(0, 12);
  p.most_conflicted = most_conflicted;
  const auto k = static_cast<std::size_t>(p.k);
  // Integer weights under the max-conflict pivot keep every fold exact
  // whatever the inclusion order; the front pivot also gets fractions.
  const double levels[] = {0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 0.25, 0.1};
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t pick = rng.Below(most_conflicted ? 6 : 8);
    p.weights.push_back(pick < 6 ? levels[pick]
                                 : levels[pick] * rng.Uniform(1.0, 9.0));
  }
  const double density = rng.Uniform(0.0, 0.6);
  p.conflict.assign(k * k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (rng.Chance(density)) {
        p.conflict[i * k + j] = p.conflict[j * k + i] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    p.sizes.push_back(static_cast<double>(rng.IntIn(0, 5)));
  }
  p.capacity = static_cast<double>(rng.IntIn(0, 20));
  return p;
}

std::vector<int> Members(int k, std::uint32_t mask) {
  std::vector<int> members;
  for (int i = 0; i < k; ++i) {
    if ((mask >> i) & 1U) members.push_back(i);
  }
  return members;
}

bool Feasible(const RandomProblem& p, const std::vector<int>& members) {
  for (std::size_t a = 0; a < members.size(); ++a) {
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      if (!p.Compatible(members[a], members[b])) return false;
    }
  }
  return p.Admits(members);
}

double Fold(const RandomProblem& p, const std::vector<int>& members) {
  double weight = 0.0;
  for (int i : members) weight += p.Weight(i);
  return weight;
}

// Include-first order over sets: at the first position where two sets
// differ, the one holding it comes first.
bool IncludeFirstBefore(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t differ = a ^ b;
  return differ != 0 && (a & (differ & (~differ + 1U))) != 0;
}

void CheckAgainstEnumeration(bool most_conflicted, std::uint64_t seed) {
  geom::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const RandomProblem p = Draw(rng, most_conflicted);
    // Exhaustive 2^k enumeration, weights folded in position order.
    double optimum = 0.0;
    std::uint32_t first = 0;
    for (std::uint32_t mask = 0; mask < (1U << p.k); ++mask) {
      const std::vector<int> members = Members(p.k, mask);
      if (!Feasible(p, members)) continue;
      const double weight = Fold(p, members);
      if (weight > optimum ||
          (weight == optimum && IncludeFirstBefore(mask, first))) {
        optimum = weight;
        first = mask;
      }
    }
    const WeightedSubset best = MaxWeightSubset(p, p.k);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ", k " << p.k);
    EXPECT_EQ(best.weight, optimum);
    EXPECT_EQ(best.weight, Fold(p, best.members));
    for (std::size_t a = 0; a < best.members.size(); ++a) {
      EXPECT_GE(best.members[a], 0);
      EXPECT_LT(best.members[a], p.k);
      for (std::size_t b = a + 1; b < best.members.size(); ++b) {
        EXPECT_NE(best.members[a], best.members[b]);
        EXPECT_TRUE(p.Compatible(best.members[a], best.members[b]));
      }
    }
    EXPECT_TRUE(p.Admits(best.members));
    if (!most_conflicted) {
      // The front pivot includes in position order, so the first optimum
      // in include-first order is exactly the set returned.
      EXPECT_EQ(best.members, Members(p.k, optimum > 0.0 ? first : 0U));
    }
  }
}

TEST(MaxWeightSubsetTest, FrontPivotMatchesEnumerationAndTieRule) {
  CheckAgainstEnumeration(/*most_conflicted=*/false, 31);
}

TEST(MaxWeightSubsetTest, MostConflictedPivotMatchesEnumeration) {
  CheckAgainstEnumeration(/*most_conflicted=*/true, 32);
}

TEST(MaxWeightSubsetTest, EmptyUniverseAndZeroWeightsGiveEmptySet) {
  RandomProblem p;
  EXPECT_TRUE(MaxWeightSubset(p, 0).members.empty());
  p.k = 3;
  p.weights.assign(3, 0.0);
  p.conflict.assign(9, 0);
  p.sizes.assign(3, 0.0);
  const WeightedSubset best = MaxWeightSubset(p, p.k);
  EXPECT_TRUE(best.members.empty());
  EXPECT_EQ(best.weight, 0.0);
}

}  // namespace
}  // namespace decaylib::core
