#include "sinr/farfield.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::sinr {

namespace {

// Registry handles resolved once (static locals), same pattern as kernel.cc.
// Metric name catalogue: docs/observability.md.
obs::Counter& FarFieldBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_builds");
  return counter;
}

obs::Counter& FarFieldAdmissionCheckCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_admission_checks");
  return counter;
}

obs::Counter& FarFieldCertifiedAcceptCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_certified_accepts");
  return counter;
}

obs::Counter& FarFieldCertifiedRejectCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_certified_rejects");
  return counter;
}

obs::Counter& FarFieldExactFallbackCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_exact_fallbacks");
  return counter;
}

obs::Counter& FarFieldRefinedCellCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_refined_cells");
  return counter;
}

geom::UniformGrid MakeGrid(std::span<const geom::Vec2> pts, int target) {
  std::vector<int> ids(pts.size());
  std::iota(ids.begin(), ids.end(), 0);
  return geom::UniformGrid(pts, ids, target);
}

std::vector<geom::Vec2> GatherEndpoints(std::span<const geom::Vec2> points,
                                        std::span<const Link> links,
                                        bool sender_side) {
  std::vector<geom::Vec2> out(links.size());
  for (std::size_t v = 0; v < links.size(); ++v) {
    const int node = sender_side ? links[v].sender : links[v].receiver;
    out[v] = points[static_cast<std::size_t>(node)];
  }
  return out;
}

// The dense SeparationOracle's guard band, replicated literal-for-literal
// so knife-edge separation decisions use identical thresholds.
constexpr double kSepBand = 1e-9;

}  // namespace

// --- FarFieldKernel ----------------------------------------------------------

FarFieldKernel::FarFieldKernel(std::span<const geom::Vec2> points,
                               std::span<const Link> links, double alpha,
                               SinrConfig config, PowerAssignment power,
                               FarFieldConfig farfield)
    : FarFieldKernel(GatherEndpoints(points, links, true),
                     GatherEndpoints(points, links, false), alpha, config,
                     std::move(power), farfield) {}

FarFieldKernel::FarFieldKernel(std::vector<geom::Vec2> senders,
                               std::vector<geom::Vec2> receivers, double alpha,
                               SinrConfig config, PowerAssignment power,
                               FarFieldConfig farfield)
    : n_(static_cast<int>(senders.size())),
      alpha_(alpha),
      config_(config),
      power_(std::move(power)),
      senders_(std::move(senders)),
      receivers_(std::move(receivers)),
      sender_grid_(MakeGrid(senders_, kTargetPerCell)),
      receiver_grid_(MakeGrid(receivers_, kTargetPerCell)) {
  Init(farfield.epsilon);
}

void FarFieldKernel::Init(double epsilon) {
  DL_CHECK(senders_.size() == receivers_.size(),
           "one sender and one receiver per link");
  DL_CHECK(n_ >= 1, "far-field kernel needs at least one link");
  DL_CHECK(alpha_ > 0.0, "path loss exponent must be positive");
  DL_CHECK(std::isfinite(epsilon) && epsilon >= 0.0,
           "far-field epsilon must be finite and >= 0");
  DL_CHECK(static_cast<int>(power_.size()) == n_, "one power entry per link");
  epsilon_ = epsilon;
  alpha_int_ = (alpha_ == std::rint(alpha_) && alpha_ >= 1.0 && alpha_ <= 16.0)
                   ? static_cast<int>(alpha_)
                   : 0;
  FarFieldBuildCounter().Add();

  const std::size_t n = static_cast<std::size_t>(n_);
  const double beta = config_.beta;
  const double noise = config_.noise;
  uniform_power_ = true;
  for (std::size_t v = 1; v < n; ++v) {
    if (power_[v] != power_[0]) {
      uniform_power_ = false;
      break;
    }
  }

  link_decay_.resize(n);
  can_overcome_.resize(n);
  noise_factor_.assign(n, 0.0);
  cf_.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    // Same expressions as KernelCache::Build, with the decay read from
    // geometry through the shared GeometricDecay helper instead of the
    // materialised space -- bit-identical over the same points.
    link_decay_[v] = geom::GeometricDecay(senders_[v], receivers_[v], alpha_);
    DL_CHECK(link_decay_[v] > 0.0, "coincident link endpoints");
    const double signal = power_[v] / link_decay_[v];
    can_overcome_[v] = signal > beta * noise ? 1 : 0;
    if (can_overcome_[v]) {
      noise_factor_[v] = beta / (1.0 - beta * noise / signal);
      cf_[v] = noise_factor_[v] * link_decay_[v];
    }
  }

  Compact(sender_grid_, senders_, &sender_cells_, &sender_cell_ids_,
          &sender_cell_of_);
  Compact(receiver_grid_, receivers_, &receiver_cells_, &receiver_cell_ids_,
          &receiver_cell_of_);

  // Exact near ring radius R0 = diag / (2^{1/alpha} - 1): beyond it,
  // d_hi <= d_lo + diag <= d_lo * 2^{1/alpha}, so a pooled cell's
  // upper/lower contribution ratio (d_hi/d_lo)^alpha is at most 2 and
  // refinement halves the residual width geometrically.
  const double ring =
      std::sqrt(2.0) / (std::pow(2.0, 1.0 / alpha_) - 1.0);
  sender_near_ = sender_grid_.CellSize() * ring;
  receiver_near_ = receiver_grid_.CellSize() * ring;
}

void FarFieldKernel::Compact(const geom::UniformGrid& grid,
                             std::span<const geom::Vec2> pts,
                             std::vector<CellAgg>* cells,
                             std::vector<int>* grouped,
                             std::vector<int>* cell_of) {
  cells->clear();
  grouped->clear();
  grouped->reserve(pts.size());
  cell_of->assign(pts.size(), -1);
  const int num = grid.NumCells();
  for (int c = 0; c < num; ++c) {
    const std::span<const int> ids = grid.CellContents(c);
    if (ids.empty()) continue;
    CellAgg agg;
    agg.first = static_cast<int>(grouped->size());
    agg.count = static_cast<int>(ids.size());
    const geom::Vec2 p0 = pts[static_cast<std::size_t>(ids[0])];
    agg.min_x = agg.max_x = p0.x;
    agg.min_y = agg.max_y = p0.y;
    const int index = static_cast<int>(cells->size());
    for (const int id : ids) {
      const geom::Vec2 p = pts[static_cast<std::size_t>(id)];
      agg.min_x = std::min(agg.min_x, p.x);
      agg.min_y = std::min(agg.min_y, p.y);
      agg.max_x = std::max(agg.max_x, p.x);
      agg.max_y = std::max(agg.max_y, p.y);
      grouped->push_back(id);
      (*cell_of)[static_cast<std::size_t>(id)] = index;
    }
    cells->push_back(agg);
  }
}

void FarFieldKernel::BoxDistance(const CellAgg& c, geom::Vec2 p, double* lo,
                                 double* hi) {
  // sqrt of the squared sum, not hypot: this feeds bound arithmetic only
  // (kGuard absorbs the ulp-level difference) and hypot's overflow-safe
  // scaling is several times slower on the admission hot loop.
  const double dx_lo = std::max({0.0, c.min_x - p.x, p.x - c.max_x});
  const double dy_lo = std::max({0.0, c.min_y - p.y, p.y - c.max_y});
  *lo = std::sqrt(dx_lo * dx_lo + dy_lo * dy_lo);
  const double dx_hi = std::max(p.x - c.min_x, c.max_x - p.x);
  const double dy_hi = std::max(p.y - c.min_y, c.max_y - p.y);
  *hi = std::sqrt(dx_hi * dx_hi + dy_hi * dy_hi);
}

double FarFieldKernel::BoxDistanceSqLower(const CellAgg& c, geom::Vec2 p) {
  const double dx = std::max({0.0, c.min_x - p.x, p.x - c.max_x});
  const double dy = std::max({0.0, c.min_y - p.y, p.y - c.max_y});
  return dx * dx + dy * dy;
}

double FarFieldKernel::AffectanceExact(int w, int v) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  if (w == v || !can_overcome_[sv]) return 0.0;
  const std::size_t sw = static_cast<std::size_t>(w);
  // The dense matrix entry's expression: cross = the space's f(s_w, r_v)
  // (GeometricDecay is the one shared spelling), then the KernelCache
  // association order with the uniform-power ratio elision.
  const double cross =
      geom::GeometricDecay(senders_[sw], receivers_[sv], alpha_);
  if (uniform_power_) {
    return noise_factor_[sv] * (link_decay_[sv] / cross);
  }
  return noise_factor_[sv] *
         (power_[sw] / power_[sv] * link_decay_[sv] / cross);
}

double FarFieldKernel::InAffectanceRawExact(std::span<const int> S,
                                            int v) const {
  // Same fold as the dense IsKFeasible row pass: entries at w == v are 0.
  double total = 0.0;
  for (int w : S) total += AffectanceExact(w, v);
  return total;
}

FarFieldKernel::Interval FarFieldKernel::CertifiedInAffectance(
    std::span<const int> S, int v) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  if (!can_overcome_[sv]) return {0.0, 0.0};
  if (!uniform_power_ || epsilon_ == 0.0) {
    const double e = InAffectanceRawExact(S, v);
    return {e, e};
  }

  // Group S by occupied sender cell (CSR over the compact cell index).
  const int num_cells = static_cast<int>(sender_cells_.size());
  std::vector<int> offset(static_cast<std::size_t>(num_cells) + 1, 0);
  for (int w : S) {
    if (w == v) continue;
    ++offset[static_cast<std::size_t>(
                 sender_cell_of_[static_cast<std::size_t>(w)]) +
             1];
  }
  for (int c = 0; c < num_cells; ++c) {
    offset[static_cast<std::size_t>(c) + 1] +=
        offset[static_cast<std::size_t>(c)];
  }
  std::vector<int> grouped(static_cast<std::size_t>(offset[num_cells]));
  std::vector<int> cursor(offset.begin(), offset.end() - 1);
  for (int w : S) {
    if (w == v) continue;
    const int c = sender_cell_of_[static_cast<std::size_t>(w)];
    grouped[static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++)] =
        w;
  }

  const geom::Vec2 p = receivers_[sv];
  const double k = cf_[sv];
  // Near + refined cells, summed pairwise through the cheap bound spelling
  // (AffectanceNear): the sum only feeds the guarded certified interval,
  // and threshold-straddling callers re-fold with the exact path anyway.
  double near_sum = 0.0;
  struct Pooled {
    int cell;
    double lo;
    double hi;
  };
  std::vector<Pooled> far;
  for (int c = 0; c < num_cells; ++c) {
    const int b = offset[static_cast<std::size_t>(c)];
    const int e = offset[static_cast<std::size_t>(c) + 1];
    if (b == e) continue;
    double lo = 0.0;
    double hi = 0.0;
    BoxDistance(sender_cells_[static_cast<std::size_t>(c)], p, &lo, &hi);
    if (lo <= sender_near_) {
      for (int i = b; i < e; ++i) {
        near_sum += AffectanceNear(grouped[static_cast<std::size_t>(i)], v);
      }
      continue;
    }
    const double cnt = static_cast<double>(e - b);
    far.push_back(
        {c, cnt * (k / BoundPow(hi)), cnt * (k / BoundPow(lo))});
  }

  // Adaptive refinement: convert the widest pooled cell to exact until the
  // certified interval meets the epsilon width target.  Totals are resummed
  // per round so the bounds never inherit subtraction cancellation.
  Interval out;
  for (;;) {
    double far_lo = 0.0;
    double far_hi = 0.0;
    for (const Pooled& f : far) {
      far_lo += f.lo;
      far_hi += f.hi;
    }
    out.lower = (near_sum + far_lo) * (1.0 - kGuard);
    out.upper = (near_sum + far_hi) * (1.0 + kGuard);
    if (far.empty() || out.upper - out.lower <= epsilon_ * out.lower) break;
    std::size_t widest = 0;
    for (std::size_t i = 1; i < far.size(); ++i) {
      if (far[i].hi - far[i].lo > far[widest].hi - far[widest].lo) widest = i;
    }
    const int c = far[widest].cell;
    far[widest] = far.back();
    far.pop_back();
    for (int i = offset[static_cast<std::size_t>(c)];
         i < offset[static_cast<std::size_t>(c) + 1]; ++i) {
      near_sum += AffectanceNear(grouped[static_cast<std::size_t>(i)], v);
    }
    FarFieldRefinedCellCounter().Add();
  }
  return out;
}

bool FarFieldKernel::IsFeasible(std::span<const int> S) const {
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    if (epsilon_ > 0.0 && uniform_power_) {
      const Interval b = CertifiedInAffectance(S, v);
      if (b.upper <= 1.0 - kBand) {
        FarFieldCertifiedAcceptCounter().Add();
        continue;
      }
      if (b.lower > 1.0 + kBand) {
        FarFieldCertifiedRejectCounter().Add();
        return false;
      }
      FarFieldExactFallbackCounter().Add();
    }
    if (InAffectanceRawExact(S, v) > 1.0) return false;
  }
  return true;
}

long long FarFieldKernel::MemoryBytes() const noexcept {
  auto bytes = [](const auto& v) {
    return static_cast<long long>(v.capacity() * sizeof(v[0]));
  };
  return bytes(senders_) + bytes(receivers_) + bytes(link_decay_) +
         bytes(can_overcome_) + bytes(noise_factor_) + bytes(cf_) +
         bytes(sender_cells_) + bytes(receiver_cells_) +
         bytes(sender_cell_ids_) + bytes(receiver_cell_ids_) +
         bytes(sender_cell_of_) + bytes(receiver_cell_of_);
}

// --- FarFieldAccumulator -----------------------------------------------------

FarFieldAccumulator::FarFieldAccumulator(const FarFieldKernel& kernel)
    : kernel_(&kernel) {
  const std::size_t n = static_cast<std::size_t>(kernel.NumLinks());
  in_set_.assign(n, 0);
  in_m_.assign(n, 0.0);
  in_raw_m_.assign(n, 0.0);
  upto_.assign(n, 0);
  in_lo_.assign(n, 0.0);
  in_hi_.assign(n, 0.0);
  scell_members_.resize(kernel.sender_cells_.size());
  rcell_members_.resize(kernel.receiver_cells_.size());
  rcell_cf_sum_.assign(kernel.receiver_cells_.size(), 0.0);
  rcell_cf_max_.assign(kernel.receiver_cells_.size(), 0.0);
  sep_mark_.assign(n, 0);
}

void FarFieldAccumulator::Add(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  const FarFieldKernel& k = *kernel_;
  const std::size_t sv = static_cast<std::size_t>(v);
  const bool pooled = k.uniform_power_ && k.epsilon_ > 0.0;
  if (pooled) {
    // Lazily-exact sums: the new member starts with an empty fold prefix
    // (CatchUp replays the dense accumulator's additions on demand), and
    // the existing members' exact folds are simply left behind -- only
    // their certified in-raw brackets advance here, pooled per receiver
    // cell with no libm call on the hot path.
    in_raw_m_[sv] = 0.0;
    in_m_[sv] = 0.0;
    upto_[sv] = 0;
    const FarFieldKernel::Interval b = CandidateInRawBounds(v);
    in_lo_[sv] = b.lower;
    in_hi_[sv] = b.upper;
    constexpr double g = FarFieldKernel::kGuard;
    const geom::Vec2 s = k.senders_[sv];
    for (int c : rcell_touched_) {
      const std::size_t sc = static_cast<std::size_t>(c);
      const auto& mem = rcell_members_[sc];
      double lo = 0.0;
      double hi = 0.0;
      FarFieldKernel::BoxDistance(k.receiver_cells_[sc], s, &lo, &hi);
      if (lo <= k.receiver_near_) {
        for (int w : mem) {
          const std::size_t sw = static_cast<std::size_t>(w);
          const double a = k.AffectanceNear(v, w);
          in_lo_[sw] += a * (1.0 - g);
          in_hi_[sw] += a * (1.0 + g);
        }
        continue;
      }
      const double inv_lo = 1.0 / k.BoundPow(hi);
      const double inv_hi = 1.0 / k.BoundPow(lo);
      for (int w : mem) {
        const std::size_t sw = static_cast<std::size_t>(w);
        const double cf = k.cf_[sw];
        in_lo_[sw] += cf * inv_lo * (1.0 - g);
        in_hi_[sw] += cf * inv_hi * (1.0 + g);
      }
    }
  } else {
    // Fold the new member's in-sums over the existing members in
    // insertion order, and push its pressure onto each existing member's
    // running sums -- the same association order the dense accumulator
    // produces (the dense version also adds the member's own +0.0 entry,
    // which cannot change an IEEE sum of non-negative terms).
    double in_raw = 0.0;
    double in = 0.0;
    for (int w : members_) {
      const std::size_t sw = static_cast<std::size_t>(w);
      const double aw_v = k.AffectanceExact(w, v);  // w's pressure on v
      const double av_w = k.AffectanceExact(v, w);  // v's pressure on w
      in_raw += aw_v;
      in += aw_v < 1.0 ? aw_v : 1.0;
      in_raw_m_[sw] += av_w;
      in_m_[sw] += av_w < 1.0 ? av_w : 1.0;
    }
    in_raw_m_[sv] = in_raw;
    in_m_[sv] = in;
  }
  members_.push_back(v);
  in_set_[sv] = 1;

  const int sc = k.sender_cell_of_[sv];
  if (scell_members_[static_cast<std::size_t>(sc)].empty()) {
    scell_touched_.push_back(sc);
  }
  scell_members_[static_cast<std::size_t>(sc)].push_back(v);
  const int rc = k.receiver_cell_of_[sv];
  if (rcell_members_[static_cast<std::size_t>(rc)].empty()) {
    rcell_touched_.push_back(rc);
  }
  rcell_members_[static_cast<std::size_t>(rc)].push_back(v);
  const double cf = k.cf_[sv];
  rcell_cf_sum_[static_cast<std::size_t>(rc)] += cf;
  if (cf > rcell_cf_max_[static_cast<std::size_t>(rc)]) {
    rcell_cf_max_[static_cast<std::size_t>(rc)] = cf;
  }
  if (pooled) {
    t2_pass_.push_back(0.0);
    t2_fail_.push_back(0.0);
    pass_limit_.push_back(0.0);
    RefreshHeadroom(members_.size() - 1);
  }
}

void FarFieldAccumulator::CatchUp(int w) const {
  const FarFieldKernel& k = *kernel_;
  if (!k.uniform_power_ || k.epsilon_ == 0.0) return;  // eager modes
  const std::size_t sw = static_cast<std::size_t>(w);
  const std::size_t end = members_.size();
  if (static_cast<std::size_t>(upto_[sw]) == end) return;
  // Replay the additions the dense accumulator would have performed
  // eagerly, in the same order: members before w (its own construction
  // fold), then members after w (their Add-time pushes).  members_ holds
  // exactly that sequence, and w's own entry contributes a +0.0 that
  // cannot change an IEEE sum of non-negative terms.
  for (std::size_t j = static_cast<std::size_t>(upto_[sw]); j < end; ++j) {
    const double au_w = k.AffectanceExact(members_[j], w);
    in_raw_m_[sw] += au_w;
    in_m_[sw] += au_w < 1.0 ? au_w : 1.0;
  }
  upto_[sw] = static_cast<int>(end);
  // The exact fold is the tightest certificate there is: collapse the
  // brackets onto it (the decision band absorbs fold-vs-real rounding).
  in_lo_[sw] = in_raw_m_[sw];
  in_hi_[sw] = in_raw_m_[sw];
}

double FarFieldAccumulator::In(int v) const {
  DL_CHECK(Contains(v), "far-field sums are member-only");
  CatchUp(v);
  return in_m_[static_cast<std::size_t>(v)];
}

FarFieldKernel::Interval FarFieldAccumulator::CandidateInRawBounds(
    int v) const {
  const FarFieldKernel& k = *kernel_;
  const geom::Vec2 p = k.receivers_[static_cast<std::size_t>(v)];
  const double kv = k.cf_[static_cast<std::size_t>(v)];
  double near_sum = 0.0;  // cheap bound spelling; in-band callers re-fold exact
  double far_lo = 0.0;
  double far_hi = 0.0;
  for (int c : scell_touched_) {
    const auto& cell = k.sender_cells_[static_cast<std::size_t>(c)];
    const auto& mem = scell_members_[static_cast<std::size_t>(c)];
    double lo = 0.0;
    double hi = 0.0;
    FarFieldKernel::BoxDistance(cell, p, &lo, &hi);
    if (lo <= k.sender_near_) {
      for (int w : mem) near_sum += k.AffectanceNear(w, v);
      continue;
    }
    const double cnt = static_cast<double>(mem.size());
    far_hi += cnt * (kv / k.BoundPow(lo));
    far_lo += cnt * (kv / k.BoundPow(hi));
  }
  return {(near_sum + far_lo) * (1.0 - FarFieldKernel::kGuard),
          (near_sum + far_hi) * (1.0 + FarFieldKernel::kGuard)};
}

FarFieldKernel::Interval FarFieldAccumulator::CandidateInClampedBounds(
    int v) const {
  const FarFieldKernel& k = *kernel_;
  const geom::Vec2 p = k.receivers_[static_cast<std::size_t>(v)];
  const double kv = k.cf_[static_cast<std::size_t>(v)];
  double near_sum = 0.0;  // cheap bound spelling; in-band callers re-fold exact
  double far_lo = 0.0;
  double far_hi = 0.0;
  for (int c : scell_touched_) {
    const auto& cell = k.sender_cells_[static_cast<std::size_t>(c)];
    const auto& mem = scell_members_[static_cast<std::size_t>(c)];
    double lo = 0.0;
    double hi = 0.0;
    FarFieldKernel::BoxDistance(cell, p, &lo, &hi);
    if (lo <= k.sender_near_) {
      for (int w : mem) {
        const double a = k.AffectanceNear(w, v);
        near_sum += a < 1.0 ? a : 1.0;
      }
      continue;
    }
    const double cnt = static_cast<double>(mem.size());
    const double phi = kv / k.BoundPow(lo);
    const double plo = kv / k.BoundPow(hi);
    far_hi += cnt * (phi < 1.0 ? phi : 1.0);
    far_lo += cnt * (plo < 1.0 ? plo : 1.0);
  }
  return {(near_sum + far_lo) * (1.0 - FarFieldKernel::kGuard),
          (near_sum + far_hi) * (1.0 + FarFieldKernel::kGuard)};
}

FarFieldKernel::Interval FarFieldAccumulator::CandidateOutClampedBounds(
    int v) const {
  const FarFieldKernel& k = *kernel_;
  const geom::Vec2 q = k.senders_[static_cast<std::size_t>(v)];
  double near_sum = 0.0;  // cheap bound spelling; in-band callers re-fold exact
  double far_lo = 0.0;
  double far_hi = 0.0;
  for (int c : rcell_touched_) {
    const std::size_t sc = static_cast<std::size_t>(c);
    const auto& cell = k.receiver_cells_[sc];
    const auto& mem = rcell_members_[sc];
    double lo = 0.0;
    double hi = 0.0;
    FarFieldKernel::BoxDistance(cell, q, &lo, &hi);
    // A cell pools only when the per-member *lower* ends cannot clamp
    // (cf_max / d_hi^alpha <= 1); otherwise sum-and-max aggregates cannot
    // bound sum-of-min from below and the cell is evaluated pairwise.
    bool pairwise = lo <= k.receiver_near_;
    if (!pairwise) {
      const double inv_hi = 1.0 / k.BoundPow(hi);
      if (rcell_cf_max_[sc] * inv_hi > 1.0) {
        pairwise = true;
      } else {
        const double cnt = static_cast<double>(mem.size());
        const double phi_sum = rcell_cf_sum_[sc] / k.BoundPow(lo);
        far_hi += phi_sum < cnt ? phi_sum : cnt;
        far_lo += rcell_cf_sum_[sc] * inv_hi;
      }
    }
    if (pairwise) {
      for (int w : mem) {
        const double a = k.AffectanceNear(v, w);
        near_sum += a < 1.0 ? a : 1.0;
      }
    }
  }
  return {(near_sum + far_lo) * (1.0 - FarFieldKernel::kGuard),
          (near_sum + far_hi) * (1.0 + FarFieldKernel::kGuard)};
}

double FarFieldAccumulator::ExactBudget(int v) const {
  // Out(v) + In(v) of the dense accumulator: two clamped folds in member
  // insertion order, then one add.
  const FarFieldKernel& k = *kernel_;
  double out = 0.0;
  for (int w : members_) {
    const double a = k.AffectanceExact(v, w);
    out += a < 1.0 ? a : 1.0;
  }
  double in = 0.0;
  for (int w : members_) {
    const double a = k.AffectanceExact(w, v);
    in += a < 1.0 ? a : 1.0;
  }
  return out + in;
}

bool FarFieldAccumulator::CanAddFeasibly(int v) const {
  FarFieldAdmissionCheckCounter().Add();
  DL_CHECK(!Contains(v), "candidate already in the accumulator");
  const FarFieldKernel& k = *kernel_;
  const bool pooled = k.uniform_power_ && k.epsilon_ > 0.0;

  // (a) candidate's raw in-sum vs 1 (dense: InRaw(v) > 1.0).
  bool decided = false;
  if (pooled) {
    const FarFieldKernel::Interval b = CandidateInRawBounds(v);
    if (b.lower > 1.0 + FarFieldKernel::kBand) {
      FarFieldCertifiedRejectCounter().Add();
      return false;
    }
    if (b.upper <= 1.0 - FarFieldKernel::kBand) {
      FarFieldCertifiedAcceptCounter().Add();
      decided = true;
    } else {
      FarFieldExactFallbackCounter().Add();
    }
  }
  if (!decided && k.InAffectanceRawExact(members_, v) > 1.0) return false;

  // (b) every member's headroom vs the candidate's pressure (dense:
  // InRaw(w) + AffectanceRaw(v, w) > 1.0).  The pooled path certifies each
  // member through its precomputed d^2 thresholds -- pow-free unless the
  // pressure lands inside the 1e-9 band of the member's headroom.
  if (pooled) {
    const geom::Vec2 s = k.senders_[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const int w = members_[i];
      const geom::Vec2 r = k.receivers_[static_cast<std::size_t>(w)];
      const double d2 = (s - r).NormSq();
      const std::size_t sw = static_cast<std::size_t>(w);
      if (in_hi_[sw] > pass_limit_[i]) RefreshHeadroom(i);
      if (d2 > t2_pass_[i]) continue;
      if (d2 < t2_fail_[i]) return false;
      // Inside the certification band: the dense comparison, on the
      // caught-up exact fold.  The catch-up collapses the member's
      // brackets, so refresh its thresholds afterwards -- they may have
      // been conservative from bracket slack.
      CatchUp(w);
      if (in_raw_m_[sw] + k.AffectanceExact(v, w) > 1.0) {
        return false;
      }
      RefreshHeadroom(i);
    }
  } else {
    for (int w : members_) {
      if (in_raw_m_[static_cast<std::size_t>(w)] + k.AffectanceExact(v, w) >
          1.0) {
        return false;
      }
    }
  }
  return true;
}

void FarFieldAccumulator::RefreshHeadroom(std::size_t i) const {
  // Member w rejects a candidate at real pressure a > h and passes at
  // a < h for headroom h = 1 - InRaw(w); in the distance domain
  // a = cf_w / d^alpha, so d^2 thresholds certify each side outside an
  // absolute 1e-9 band around the threshold (absolute, not relative to h:
  // the dense fp fold's error scales with the ~1 magnitudes of the sums,
  // not with a tiny headroom).
  //
  // The thresholds are maintained lazily instead of rebuilt for every
  // member on every Add.  h only shrinks as members join, so a stale fail
  // threshold stays valid (it certifies a > h_old + band >= h + band).
  // The pass threshold is computed for the halved headroom h/2, which
  // keeps it valid until h actually halves; pass_limit_ records the
  // in-raw level where that happens and CanAddFeasibly refreshes past it.
  // Each refresh halves the certified headroom, so a member is refreshed
  // O(log(h_0 / band)) times over a run instead of once per Add.
  const FarFieldKernel& k = *kernel_;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double band = FarFieldKernel::kBand;
  const double g = FarFieldKernel::kGuard;
  const double inv = 2.0 / k.alpha_;
  const std::size_t sw = static_cast<std::size_t>(members_[i]);
  // Headroom from the certified brackets, not the (possibly stale) exact
  // fold: h_pass underestimates it (safe for pass certificates), h_fail
  // overestimates it (safe for fail certificates).  A CatchUp collapses
  // the brackets and the next refresh recovers the full precision.
  const double h_pass = 1.0 - in_hi_[sw];
  const double h_fail = 1.0 - in_lo_[sw];
  const double cf = k.cf_[sw];
  t2_fail_[i] = h_fail + band > 0.0
                    ? std::pow(cf / (h_fail + band), inv) * (1.0 - g)
                    : kInf;
  const double h_half = 0.5 * h_pass;
  if (h_half > band) {
    t2_pass_[i] = std::pow(cf / (h_half - band), inv) * (1.0 + g);
    pass_limit_[i] = 1.0 - h_half;
  } else if (h_pass > band) {
    // Too little headroom to halve: certify at the current level; any
    // further in-raw growth triggers another refresh (h <= 2*band, so
    // this branch drains within a few adds).
    t2_pass_[i] = std::pow(cf / (h_pass - band), inv) * (1.0 + g);
    pass_limit_[i] = in_hi_[sw];
  } else {
    // No certifiable pass side at the bracket's upper end.  Final unless
    // a CatchUp tightens the bracket back above the band (the in-band
    // exact path refreshes after catching up).
    t2_pass_[i] = kInf;
    pass_limit_[i] = kInf;
  }
}

bool FarFieldAccumulator::BudgetWithinHalf(int v) const {
  const FarFieldKernel& k = *kernel_;
  if (k.uniform_power_ && k.epsilon_ > 0.0) {
    const FarFieldKernel::Interval in_b = CandidateInClampedBounds(v);
    const FarFieldKernel::Interval out_b = CandidateOutClampedBounds(v);
    const double lower = in_b.lower + out_b.lower;
    const double upper = in_b.upper + out_b.upper;
    if (upper <= 0.5 - FarFieldKernel::kBand) {
      FarFieldCertifiedAcceptCounter().Add();
      return true;
    }
    if (lower > 0.5 + FarFieldKernel::kBand) {
      FarFieldCertifiedRejectCounter().Add();
      return false;
    }
    FarFieldExactFallbackCounter().Add();
  }
  return ExactBudget(v) <= 0.5;
}

bool FarFieldAccumulator::IsSeparatedFromMembers(int v, double eta,
                                                 double zeta) const {
  const FarFieldKernel& k = *kernel_;
  const double inv_zeta = 1.0 / zeta;
  const double eta_pow = std::pow(eta, zeta);  // as SeparationOracle's ctor
  const double fvv = k.link_decay_[static_cast<std::size_t>(v)];
  const double thr = eta_pow * fvv;
  const double thr_lo = thr * (1.0 - kSepBand);
  const double thr_hi = thr * (1.0 + kSepBand);
  // d^2 certification radii with doubled bands: m = min d^alpha over the
  // four endpoint pairs, so every pair distance^2 above r2_hi certifies the
  // dense oracle's clearly-separated branch, and any pair below r2_lo its
  // clearly-too-close branch.
  const double r2_hi = std::pow(thr * (1.0 + 2.0 * kSepBand), 2.0 / k.alpha_) *
                       (1.0 + FarFieldKernel::kGuard);
  const double r2_lo = std::pow(thr * (1.0 - 2.0 * kSepBand), 2.0 / k.alpha_) *
                       (1.0 - FarFieldKernel::kGuard);
  const geom::Vec2 sv_pos = k.senders_[static_cast<std::size_t>(v)];
  const geom::Vec2 rv_pos = k.receivers_[static_cast<std::size_t>(v)];

  // Whole member cells beyond the certification radius from both of the
  // candidate's endpoints are separated wholesale; only members of nearer
  // cells (by sender or receiver) run a per-member verdict.
  sep_scratch_.clear();
  const auto collect = [&](const std::vector<int>& touched,
                           const std::vector<std::vector<int>>& cell_members,
                           const std::vector<FarFieldKernel::CellAgg>& cells) {
    for (int c : touched) {
      const auto& cell = cells[static_cast<std::size_t>(c)];
      if (FarFieldKernel::BoxDistanceSqLower(cell, sv_pos) > r2_hi &&
          FarFieldKernel::BoxDistanceSqLower(cell, rv_pos) > r2_hi) {
        continue;
      }
      for (int w : cell_members[static_cast<std::size_t>(c)]) {
        const std::size_t sw = static_cast<std::size_t>(w);
        if (!sep_mark_[sw]) {
          sep_mark_[sw] = 1;
          sep_scratch_.push_back(w);
        }
      }
    }
  };
  collect(scell_touched_, scell_members_, k.sender_cells_);
  collect(rcell_touched_, rcell_members_, k.receiver_cells_);

  bool separated = true;
  for (int w : sep_scratch_) {
    sep_mark_[static_cast<std::size_t>(w)] = 0;  // reset while draining
    if (!separated || w == v) continue;
    const geom::Vec2 sw_pos = k.senders_[static_cast<std::size_t>(w)];
    const geom::Vec2 rw_pos = k.receivers_[static_cast<std::size_t>(w)];
    const double m2 =
        std::min(std::min((sv_pos - rw_pos).NormSq(), (sw_pos - rv_pos).NormSq()),
                 std::min((sv_pos - sw_pos).NormSq(), (rv_pos - rw_pos).NormSq()));
    if (m2 > r2_hi) continue;
    if (m2 < r2_lo) {
      separated = false;
      continue;
    }
    // Inside the certification band: the dense oracle's exact expressions.
    // MinPairDecay's entries are the space's pow(distance, alpha) values,
    // min-nested exactly as KernelCache::Build stores them.
    const double sv_rw = geom::GeometricDecay(sv_pos, rw_pos, k.alpha_);
    const double sw_rv = geom::GeometricDecay(sw_pos, rv_pos, k.alpha_);
    const double sv_sw = geom::GeometricDecay(sv_pos, sw_pos, k.alpha_);
    const double rv_rw = geom::GeometricDecay(rv_pos, rw_pos, k.alpha_);
    const double m = std::min(std::min(sv_rw, sw_rv), std::min(sv_sw, rv_rw));
    if (m > thr_hi) continue;
    if (m < thr_lo) {
      separated = false;
      continue;
    }
    if (std::pow(m, inv_zeta) < eta * std::pow(fvv, inv_zeta)) {
      separated = false;
    }
  }
  return separated;
}

}  // namespace decaylib::sinr
