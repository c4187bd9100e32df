#include "sinr/link_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/check.h"
#include "sinr/kernel_tier.h"

namespace decaylib::sinr {

LinkSystem::LinkSystem(const core::DecaySpace& space, std::vector<Link> links,
                       SinrConfig config)
    : space_(&space), links_(std::move(links)), config_(config) {
  DL_CHECK(config_.beta >= 1.0, "the thresholding model assumes beta >= 1");
  DL_CHECK(config_.noise >= 0.0, "noise must be non-negative");
  for (const Link& l : links_) {
    DL_CHECK(l.sender >= 0 && l.sender < space.size() && l.receiver >= 0 &&
                 l.receiver < space.size(),
             "link endpoint out of range");
    DL_CHECK(l.sender != l.receiver, "sender and receiver must differ");
  }
}

double LinkSystem::LinkDecay(int v) const {
  const Link& l = links_[static_cast<std::size_t>(v)];
  return (*space_)(l.sender, l.receiver);
}

double LinkSystem::CrossDecay(int w, int v) const {
  return (*space_)(links_[static_cast<std::size_t>(w)].sender,
                   links_[static_cast<std::size_t>(v)].receiver);
}

bool LinkSystem::CanOvercomeNoise(int v, const PowerAssignment& power) const {
  const double signal = power[static_cast<std::size_t>(v)] / LinkDecay(v);
  return signal > config_.beta * config_.noise;
}

double LinkSystem::NoiseFactor(int v, const PowerAssignment& power) const {
  DL_CHECK(CanOvercomeNoise(v, power),
           "link cannot meet the SINR threshold even alone");
  const double signal = power[static_cast<std::size_t>(v)] / LinkDecay(v);
  return config_.beta / (1.0 - config_.beta * config_.noise / signal);
}

double LinkSystem::Affectance(int w, int v, const PowerAssignment& power) const {
  return std::min(1.0, AffectanceRaw(w, v, power));
}

double LinkSystem::AffectanceRaw(int w, int v,
                                 const PowerAssignment& power) const {
  if (w == v) return 0.0;
  const double cv = NoiseFactor(v, power);
  const double ratio = power[static_cast<std::size_t>(w)] /
                       power[static_cast<std::size_t>(v)] * LinkDecay(v) /
                       CrossDecay(w, v);
  return cv * ratio;
}

double LinkSystem::InAffectance(std::span<const int> S, int v,
                                const PowerAssignment& power) const {
  double total = 0.0;
  for (int w : S) total += Affectance(w, v, power);
  return total;
}

double LinkSystem::OutAffectance(int v, std::span<const int> S,
                                 const PowerAssignment& power) const {
  double total = 0.0;
  for (int w : S) total += Affectance(v, w, power);
  return total;
}

double LinkSystem::Sinr(int v, std::span<const int> S,
                        const PowerAssignment& power) const {
  const double signal = power[static_cast<std::size_t>(v)] / LinkDecay(v);
  double interference = config_.noise;
  for (int u : S) {
    if (u == v) continue;
    interference += power[static_cast<std::size_t>(u)] / CrossDecay(u, v);
  }
  if (interference == 0.0) return std::numeric_limits<double>::infinity();
  return signal / interference;
}

bool LinkSystem::IsFeasible(std::span<const int> S,
                            const PowerAssignment& power) const {
  return IsKFeasible(S, 1.0, power);
}

bool LinkSystem::IsKFeasible(std::span<const int> S, double K,
                             const PowerAssignment& power) const {
  for (int v : S) {
    if (!CanOvercomeNoise(v, power)) return false;
    double total = 0.0;
    for (int w : S) total += AffectanceRaw(w, v, power);
    if (total > 1.0 / K) return false;
  }
  return true;
}

bool LinkSystem::IsSinrFeasible(std::span<const int> S,
                                const PowerAssignment& power) const {
  for (int v : S) {
    if (Sinr(v, S, power) < config_.beta) return false;
  }
  return true;
}

double LinkSystem::MaxInAffectance(std::span<const int> S,
                                   const PowerAssignment& power) const {
  double worst = 0.0;
  for (int v : S) worst = std::max(worst, InAffectance(S, v, power));
  return worst;
}

double LinkSystem::LinkLength(int v, double zeta) const {
  return std::pow(LinkDecay(v), 1.0 / zeta);
}

double LinkSystem::LinkDistance(int v, int w, double zeta) const {
  const Link& lv = links_[static_cast<std::size_t>(v)];
  const Link& lw = links_[static_cast<std::size_t>(w)];
  auto d = [&](int p, int q) {
    return p == q ? 0.0 : std::pow((*space_)(p, q), 1.0 / zeta);
  };
  return std::min(std::min(d(lv.sender, lw.receiver), d(lw.sender, lv.receiver)),
                  std::min(d(lv.sender, lw.sender), d(lv.receiver, lw.receiver)));
}

bool LinkSystem::IsSeparatedFrom(int v, std::span<const int> L, double eta,
                                 double zeta) const {
  const double needed = eta * LinkLength(v, zeta);
  for (int w : L) {
    if (w == v) continue;
    if (LinkDistance(v, w, zeta) < needed) return false;
  }
  return true;
}

bool LinkSystem::IsSeparatedSet(std::span<const int> L, double eta,
                                double zeta) const {
  for (int v : L) {
    if (!IsSeparatedFrom(v, L, eta, zeta)) return false;
  }
  return true;
}

std::vector<int> LinkSystem::OrderByDecay() const {
  return DecayOrder(*this, AllLinks(*this));
}

std::vector<Link> LinksFromPairs(std::span<const std::pair<int, int>> pairs) {
  std::vector<Link> links;
  links.reserve(pairs.size());
  for (const auto& [s, r] : pairs) links.push_back({s, r});
  return links;
}

std::vector<int> AllLinks(const LinkSystem& system) {
  std::vector<int> ids(static_cast<std::size_t>(system.NumLinks()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace decaylib::sinr
