#include "sinr/gain_rows.h"

namespace decaylib::sinr {

GainRows::GainRows(const KernelCache& kernel)
    : kernel_(&kernel),
      n_(static_cast<std::size_t>(kernel.NumLinks())),
      noise_(kernel.system().config().noise),
      beta_(kernel.system().config().beta),
      signal_(n_),
      built_(n_, 0),
      gain_(std::make_unique_for_overwrite<double[]>(n_ * n_)) {
  kernel.Require(KernelSlabs::kCrossDecay);
  const PowerAssignment& power = kernel.power();
  for (std::size_t v = 0; v < n_; ++v) {
    signal_[v] = power[v] / kernel.LinkDecay(static_cast<int>(v));
  }
}

const double* GainRows::Row(int v) {
  const std::size_t sv = static_cast<std::size_t>(v);
  double* row = gain_.get() + sv * n_;
  if (!built_[sv]) {
    const PowerAssignment& power = kernel_->power();
    for (std::size_t u = 0; u < n_; ++u) {
      row[u] = u == sv ? 0.0
                       : power[u] / kernel_->CrossDecay(static_cast<int>(u), v);
    }
    built_[sv] = 1;
  }
  return row;
}

void GainRows::Successes(std::span<const int> S, std::vector<char>& ok) {
  const std::size_t k = S.size();
  ok.resize(k);
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const double* g0 = Row(S[i]);
    const double* g1 = Row(S[i + 1]);
    const double* g2 = Row(S[i + 2]);
    const double* g3 = Row(S[i + 3]);
    double t0 = noise_, t1 = noise_, t2 = noise_, t3 = noise_;
    for (const int u : S) {
      const std::size_t su = static_cast<std::size_t>(u);
      t0 += g0[su];
      t1 += g1[su];
      t2 += g2[su];
      t3 += g3[su];
    }
    ok[i] = Meets(S[i], t0);
    ok[i + 1] = Meets(S[i + 1], t1);
    ok[i + 2] = Meets(S[i + 2], t2);
    ok[i + 3] = Meets(S[i + 3], t3);
  }
  for (; i < k; ++i) {
    const double* g = Row(S[i]);
    double t = noise_;
    for (const int u : S) t += g[static_cast<std::size_t>(u)];
    ok[i] = Meets(S[i], t);
  }
}

}  // namespace decaylib::sinr
