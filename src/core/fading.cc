#include "core/fading.h"

#include <algorithm>
#include <cmath>

#include "core/branch_and_bound.h"
#include "core/check.h"
#include "core/numerics.h"

namespace decaylib::core {

bool IsSeparatedNodeSet(const DecaySpace& space, std::span<const int> nodes,
                        double r) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!(space(nodes[i], nodes[j]) > r) ||
          !(space(nodes[j], nodes[i]) > r)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

struct Candidate {
  int node = 0;
  double weight = 0.0;  // 1 / f(node, z)
};

// Candidates must themselves be r-separated from the listener z (X u {z}
// r-separated; see fading.h).
bool SeparatedFromListener(const DecaySpace& space, int x, int z, double r) {
  return space(x, z) > r && space(z, x) > r;
}

// The senders that may join listener z's r-separated set, heaviest gain
// first.
std::vector<Candidate> Candidates(const DecaySpace& space, int z, double r) {
  std::vector<Candidate> items;
  for (int x = 0; x < space.size(); ++x) {
    if (x == z || !SeparatedFromListener(space, x, z, r)) continue;
    items.push_back({x, 1.0 / space(x, z)});
  }
  std::sort(items.begin(), items.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.weight > b.weight;
            });
  return items;
}

}  // namespace

FadingValue FadingValueExact(const DecaySpace& space, int z, double r) {
  DL_CHECK(z >= 0 && z < space.size(), "listener out of range");
  DL_CHECK(r > 0.0, "separation term must be positive");
  struct Problem {
    const DecaySpace& space;
    double r;
    std::vector<Candidate> items;
    double Weight(int i) const {
      return items[static_cast<std::size_t>(i)].weight;
    }
    std::size_t Pivot(std::span<const int>) const { return 0; }
    bool Compatible(int i, int j) const {
      const int a = items[static_cast<std::size_t>(i)].node;
      const int b = items[static_cast<std::size_t>(j)].node;
      return space(a, b) > r && space(b, a) > r;
    }
    bool Admits(std::span<const int>) const { return true; }
  };
  // Heavy-first order makes the remaining-weight bound effective early.
  const Problem problem{space, r, Candidates(space, z, r)};
  const WeightedSubset best =
      MaxWeightSubset(problem, static_cast<int>(problem.items.size()));
  FadingValue value{r * best.weight, {}};
  for (int i : best.members) {
    value.witness.push_back(problem.items[static_cast<std::size_t>(i)].node);
  }
  std::sort(value.witness.begin(), value.witness.end());
  return value;
}

FadingValue FadingValueGreedy(const DecaySpace& space, int z, double r) {
  DL_CHECK(z >= 0 && z < space.size(), "listener out of range");
  DL_CHECK(r > 0.0, "separation term must be positive");
  std::vector<int> chosen;
  double total = 0.0;
  for (const Candidate& c : Candidates(space, z, r)) {
    bool ok = true;
    for (int existing : chosen) {
      if (!(space(c.node, existing) > r) || !(space(existing, c.node) > r)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      chosen.push_back(c.node);
      total += c.weight;
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return {r * total, std::move(chosen)};
}

double FadingParameter(const DecaySpace& space, double r, bool exact) {
  double gamma = 0.0;
  for (int z = 0; z < space.size(); ++z) {
    const FadingValue value =
        exact ? FadingValueExact(space, z, r) : FadingValueGreedy(space, z, r);
    gamma = std::max(gamma, value.gamma);
  }
  return gamma;
}

double Theorem2Bound(double C, double A) {
  DL_CHECK(A < 1.0, "Theorem 2 requires Assouad dimension below 1");
  DL_CHECK(C > 0.0, "doubling constant must be positive");
  return C * std::pow(2.0, A + 1.0) * (RiemannZeta(2.0 - A) - 1.0);
}

}  // namespace decaylib::core
