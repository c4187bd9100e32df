#include "graph/independent_set.h"

#include <algorithm>

#include "core/branch_and_bound.h"

namespace decaylib::graph {

std::vector<int> MaxIndependentSet(const Graph& g) {
  std::vector<int> best = core::LargestCompatibleSet(
      g.size(), [&](int u, int v) { return !g.HasEdge(u, v); });
  std::sort(best.begin(), best.end());
  return best;
}

std::vector<int> GreedyIndependentSet(const Graph& g) {
  const int n = g.size();
  std::vector<char> removed(static_cast<std::size_t>(n), 0);
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) degree[static_cast<std::size_t>(v)] = g.Degree(v);
  std::vector<int> chosen;
  int remaining = n;
  while (remaining > 0) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (removed[static_cast<std::size_t>(v)]) continue;
      if (best == -1 || degree[static_cast<std::size_t>(v)] <
                            degree[static_cast<std::size_t>(best)]) {
        best = v;
      }
    }
    chosen.push_back(best);
    removed[static_cast<std::size_t>(best)] = 1;
    --remaining;
    for (int u : g.Neighbors(best)) {
      if (!removed[static_cast<std::size_t>(u)]) {
        removed[static_cast<std::size_t>(u)] = 1;
        --remaining;
        for (int w : g.Neighbors(u)) {
          --degree[static_cast<std::size_t>(w)];
        }
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace decaylib::graph
