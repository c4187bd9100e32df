#include "sinr/farfield.h"

#include <algorithm>
#include <array>
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

geom::UniformGrid MakeGrid(std::span<const geom::Vec2> pts, int target) {
  std::vector<int> ids(pts.size());
  std::iota(ids.begin(), ids.end(), 0);
  return geom::UniformGrid(pts, ids, target);
}

template <typename V>
long long Bytes(const V& v) {
  return static_cast<long long>(v.capacity() * sizeof(v[0]));
}

// A grid side has at most 2^31 cells, so a hierarchy has at most 32 levels.
constexpr std::size_t kMaxLevels = 32;

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

}  // namespace

// --- Block hierarchy ---------------------------------------------------------

FarFieldKernel::EndpointGrid::EndpointGrid(std::span<const geom::Vec2> pts,
                                           int target_per_cell)
    : grid(MakeGrid(pts, target_per_cell)) {
  const int num = grid.NumCells();
  cell_of.assign(pts.size(), -1);
  cell_of_leaf.assign(static_cast<std::size_t>(num), -1);
  int occupied = 0;
  for (int c = 0; c < num; ++c) {
    if (!grid.CellContents(c).empty()) ++occupied;
  }
  cell_box.reserve(static_cast<std::size_t>(occupied));
  leaf_of_cell.reserve(static_cast<std::size_t>(occupied));
  for (int c = 0; c < num; ++c) {
    const std::span<const int> ids = grid.CellContents(c);
    if (ids.empty()) continue;
    const int cell = static_cast<int>(cell_box.size());
    Box box;
    for (const int id : ids) {
      box.Extend(pts[static_cast<std::size_t>(id)]);
      cell_of[static_cast<std::size_t>(id)] = cell;
    }
    cell_box.push_back(box);
    leaf_of_cell.push_back(c);
    cell_of_leaf[static_cast<std::size_t>(c)] = cell;
  }
  Level level{grid.Cols(), grid.Rows(), 0};
  levels.push_back(level);
  while (level.cols > 1 || level.rows > 1) {
    level.offset += level.cols * level.rows;
    level.cols = (level.cols + 1) / 2;
    level.rows = (level.rows + 1) / 2;
    levels.push_back(level);
  }
  DL_CHECK(levels.size() <= kMaxLevels, "block hierarchy too deep");
}

void FarFieldKernel::EndpointGrid::AddToBlocks(
    int cell, geom::Vec2 p, double cf, std::vector<Block>& blocks) const {
  const int leaf = leaf_of_cell[static_cast<std::size_t>(cell)];
  const int x = leaf % levels[0].cols;
  const int y = leaf / levels[0].cols;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Level& lv = levels[l];
    Block& b = blocks[static_cast<std::size_t>(
        lv.offset + (y >> l) * lv.cols + (x >> l))];
    b.box.Extend(p);
    ++b.count;
    b.cf_sum += cf;
    b.cf_max = std::max(b.cf_max, cf);
  }
}

long long FarFieldKernel::EndpointGrid::MemoryBytes() const noexcept {
  return grid.MemoryBytes() + Bytes(cell_box) + Bytes(cell_of) +
         Bytes(leaf_of_cell) + Bytes(cell_of_leaf) + Bytes(levels);
}

template <typename Visit, typename Leaf>
void FarFieldKernel::Walk(const EndpointGrid& side,
                          const std::vector<Block>& blocks, Visit&& visit,
                          Leaf&& leaf) {
  // Depth first: an opened block pushes at most four children, so the
  // stack never holds more than three per level plus one.
  std::array<Frame, 3 * kMaxLevels + 1> stack;
  std::size_t top = 0;
  stack[top++] = Frame{static_cast<int>(side.levels.size()) - 1, 0, 0};
  while (top > 0) {
    const Frame f = stack[--top];
    const Level& lv =
        side.levels[static_cast<std::size_t>(f.level)];
    const int id = lv.offset + f.y * lv.cols + f.x;
    if (blocks[static_cast<std::size_t>(id)].count == 0 || visit(f, id)) {
      continue;
    }
    if (f.level == 0) {
      leaf(side.cell_of_leaf[static_cast<std::size_t>(id)]);
      continue;
    }
    const Level& child = side.levels[static_cast<std::size_t>(f.level - 1)];
    const int x_end = std::min(2 * f.x + 2, child.cols);
    const int y_end = std::min(2 * f.y + 2, child.rows);
    for (int y = 2 * f.y; y < y_end; ++y) {
      for (int x = 2 * f.x; x < x_end; ++x) {
        stack[top++] = Frame{f.level - 1, x, y};
      }
    }
  }
}

template <typename Bounds, typename Pool, typename Pairwise>
void FarFieldKernel::Scan(const EndpointGrid& side,
                          const std::vector<Block>& blocks, geom::Vec2 p,
                          double tol, Bounds&& bounds, Pool&& pool,
                          Pairwise&& pairwise) {
  Walk(
      side, blocks,
      [&](const Frame& f, int id) {
        if (f.level == 0 &&
            InNearRing(side, side.cell_of_leaf[static_cast<std::size_t>(id)],
                       p)) {
          return false;
        }
        const Block& b = blocks[static_cast<std::size_t>(id)];
        double lo = 0.0;
        double hi = 0.0;
        BoxDistance(b.box, p, &lo, &hi);
        double dn = 0.0;
        double up = 0.0;
        if (!bounds(f, b, lo, hi, &dn, &up)) return false;
        // `!(<=)` also opens a block whose width is inf or NaN (a box
        // touching p).
        if (f.level > 0 && !(up - dn <= tol)) return false;
        pool(f, dn, up);
        return true;
      },
      pairwise);
}

template <typename Bounds, typename Pairwise>
FarFieldKernel::Interval FarFieldKernel::PooledInterval(
    const EndpointGrid& side, const std::vector<Block>& blocks, geom::Vec2 p,
    double tol, Bounds&& bounds, Pairwise&& pairwise) {
  double near_sum = 0.0;  // cheap bound spelling; in-band callers re-fold exact
  double far_lo = 0.0;
  double far_hi = 0.0;
  Scan(
      side, blocks, p, tol, bounds,
      [&](const Frame&, double dn, double up) {
        far_lo += dn;
        far_hi += up;
      },
      [&](int cell) { near_sum += pairwise(cell); });
  return {(near_sum + far_lo) * (1.0 - kGuard),
          (near_sum + far_hi) * (1.0 + kGuard)};
}

template <typename MembersOf>
FarFieldKernel::Interval FarFieldKernel::InBounds(
    const std::vector<Block>& blocks, MembersOf&& members_of, int v,
    double tol, bool clamp) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  const double kv = cf_[sv];
  const int own_leaf = sender_.leaf_of_cell[static_cast<std::size_t>(
      sender_.cell_of[sv])];
  const int own_x = own_leaf % sender_.levels[0].cols;
  const int own_y = own_leaf / sender_.levels[0].cols;
  const auto term = [clamp](double a) { return !clamp || a < 1.0 ? a : 1.0; };
  return PooledInterval(
      sender_, blocks, receivers_[sv], tol,
      [&](const Frame& f, const Block& b, double lo, double hi, double* dn,
          double* up) {
        if ((own_x >> f.level) == f.x && (own_y >> f.level) == f.y) {
          return false;
        }
        const double cnt = static_cast<double>(b.count);
        *dn = cnt * term(kv / BoundPow(hi));
        *up = cnt * term(kv / BoundPow(lo));
        return true;
      },
      [&](int cell) {
        double sum = 0.0;
        for (int w : members_of(cell)) sum += term(AffectanceNear(w, v));
        return sum;
      });
}

template <typename BoundsAt>
FarFieldKernel::Verdict FarFieldKernel::Decide(BoundsAt&& bounds_at,
                                               double t) {
  Interval b = bounds_at(kDecideTol);
  // A coarse interval that neither clears t - kBand from below nor
  // t + kBand from above gets the leaf-resolution walk.
  if (b.upper > t - kBand && b.lower <= t + kBand) b = bounds_at(0.0);
  if (b.upper <= t - kBand) {
    FarFieldCertifiedAcceptCounter().Add();
    return Verdict::kBelow;
  }
  if (b.lower > t + kBand) {
    FarFieldCertifiedRejectCounter().Add();
    return Verdict::kAbove;
  }
  FarFieldExactFallbackCounter().Add();
  return Verdict::kUndecided;
}

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
      sender_(senders_, kTargetPerCell),
      receiver_(receivers_, kTargetPerCell) {
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
  pooled_ = epsilon > 0.0 && uniform_power_;

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

  // Exact near ring radius R0 = diag / (2^{1/alpha} - 1): beyond it,
  // d_hi <= d_lo + diag <= d_lo * 2^{1/alpha}, so a pooled level-0 block's
  // upper/lower contribution ratio (d_hi/d_lo)^alpha is at most 2.
  const double ring =
      std::sqrt(2.0) / (std::pow(2.0, 1.0 / alpha_) - 1.0);
  sender_.near = sender_.grid.CellSize() * ring;
  receiver_.near = receiver_.grid.CellSize() * ring;
}

void FarFieldKernel::BoxDistance(const Box& b, geom::Vec2 p, double* lo,
                                 double* hi) {
  // sqrt of the squared sum, not hypot: this feeds bound arithmetic only
  // (kGuard absorbs the ulp-level difference) and hypot's overflow-safe
  // scaling is several times slower on the admission hot loop.
  const double dx_lo = std::max({0.0, b.min_x - p.x, p.x - b.max_x});
  const double dy_lo = std::max({0.0, b.min_y - p.y, p.y - b.max_y});
  *lo = std::sqrt(dx_lo * dx_lo + dy_lo * dy_lo);
  const double dx_hi = std::max(p.x - b.min_x, b.max_x - p.x);
  const double dy_hi = std::max(p.y - b.min_y, b.max_y - p.y);
  *hi = std::sqrt(dx_hi * dx_hi + dy_hi * dy_hi);
}

double FarFieldKernel::BoxDistanceSqLower(const Box& b, geom::Vec2 p) {
  const double dx = std::max({0.0, b.min_x - p.x, p.x - b.max_x});
  const double dy = std::max({0.0, b.min_y - p.y, p.y - b.max_y});
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
  // Same fold as the dense IsFeasible column pass: entries at w == v are 0.
  double total = 0.0;
  for (int w : S) total += AffectanceExact(w, v);
  return total;
}

struct FarFieldKernel::SenderBins {
  std::vector<int> offset;   // cell c: grouped[offset[c], offset[c + 1])
  std::vector<int> grouped;  // S's entries, grouped by occupied sender cell
  std::vector<Block> blocks;  // S's entries in the sender hierarchy
  std::span<const int> Members(int cell) const {
    const std::size_t c = static_cast<std::size_t>(cell);
    return std::span(grouped).subspan(
        static_cast<std::size_t>(offset[c]),
        static_cast<std::size_t>(offset[c + 1] - offset[c]));
  }
};

FarFieldKernel::SenderBins FarFieldKernel::BinBySender(
    std::span<const int> S) const {
  SenderBins bins;
  const std::size_t num_cells = sender_.cell_box.size();
  bins.offset.assign(num_cells + 1, 0);
  for (int w : S) {
    ++bins.offset[static_cast<std::size_t>(
                      sender_.cell_of[static_cast<std::size_t>(w)]) +
                  1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    bins.offset[c + 1] += bins.offset[c];
  }
  bins.grouped.resize(S.size());
  bins.blocks.assign(static_cast<std::size_t>(sender_.NumBlocks()), Block{});
  std::vector<int> cursor(bins.offset.begin(), bins.offset.end() - 1);
  for (int w : S) {
    const std::size_t sw = static_cast<std::size_t>(w);
    const int c = sender_.cell_of[sw];
    bins.grouped[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(c)]++)] = w;
    sender_.AddToBlocks(c, senders_[sw], cf_[sw], bins.blocks);
  }
  return bins;
}

FarFieldKernel::Interval FarFieldKernel::CertifiedInAffectance(
    std::span<const int> S, int v) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  if (!can_overcome_[sv]) return {0.0, 0.0};
  if (!pooled_) {
    const double e = InAffectanceRawExact(S, v);
    return {e, e};
  }
  const SenderBins bins = BinBySender(S);
  return InBounds(
      bins.blocks, [&](int cell) { return bins.Members(cell); }, v, 0.0,
      /*clamp=*/false);
}

bool FarFieldKernel::IsFeasible(std::span<const int> S) const {
  SenderBins bins;
  if (pooled_) bins = BinBySender(S);
  const auto members_of = [&](int cell) { return bins.Members(cell); };
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    if (pooled_) {
      const Verdict verdict = Decide(
          [&](double tol) {
            return InBounds(bins.blocks, members_of, v, tol,
                            /*clamp=*/false);
          },
          1.0);
      if (verdict == Verdict::kBelow) continue;
      if (verdict == Verdict::kAbove) return false;
    }
    if (InAffectanceRawExact(S, v) > 1.0) return false;
  }
  return true;
}

long long FarFieldKernel::MemoryBytes() const noexcept {
  return Bytes(senders_) + Bytes(receivers_) + Bytes(link_decay_) +
         Bytes(can_overcome_) + Bytes(noise_factor_) + Bytes(cf_) +
         Bytes(power_) + sender_.MemoryBytes() + receiver_.MemoryBytes();
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
  scell_members_.resize(kernel.sender_.cell_box.size());
  rcell_members_.resize(kernel.receiver_.cell_box.size());
  sblocks_.assign(static_cast<std::size_t>(kernel.sender_.NumBlocks()),
                  FarFieldKernel::Block{});
  rblocks_.assign(static_cast<std::size_t>(kernel.receiver_.NumBlocks()),
                  FarFieldKernel::Block{});
  sep_mark_.assign(n, 0);
}

void FarFieldAccumulator::Add(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  const FarFieldKernel& k = *kernel_;
  const std::size_t sv = static_cast<std::size_t>(v);
  // The member sums are lazily exact: the new member starts with an empty
  // fold prefix (CatchUp replays the dense accumulator's additions on
  // demand), and the existing members' exact folds are simply left behind.
  // Pooled, only the certified in-raw brackets advance here, per receiver
  // block with no libm call on the hot path.
  if (k.pooled_) {
    const Interval b = CandidateInBounds(v, FarFieldKernel::kBracketTol,
                                         /*clamp=*/false);
    in_lo_[sv] = b.lower;
    in_hi_[sv] = b.upper;
    AddPressureBrackets(v);
  }
  members_.push_back(v);
  in_set_[sv] = 1;

  const int sc = k.sender_.cell_of[sv];
  scell_members_[static_cast<std::size_t>(sc)].push_back(v);
  k.sender_.AddToBlocks(sc, k.senders_[sv], k.cf_[sv], sblocks_);
  const int rc = k.receiver_.cell_of[sv];
  rcell_members_[static_cast<std::size_t>(rc)].push_back(v);
  k.receiver_.AddToBlocks(rc, k.receivers_[sv], k.cf_[sv], rblocks_);
  if (k.pooled_) {
    t2_pass_.push_back(0.0);
    t2_fail_.push_back(0.0);
    pass_limit_.push_back(0.0);
    RefreshHeadroom(members_.size() - 1);
  }
}

void FarFieldAccumulator::AddPressureBrackets(int v) {
  const FarFieldKernel& k = *kernel_;
  constexpr double g = FarFieldKernel::kGuard;
  const geom::Vec2 s = k.senders_[static_cast<std::size_t>(v)];
  // Member w in a pooled block feels cf_w / d^alpha for d in the block's
  // distance range [lo, hi]; bounds() leaves the block's 1 / d^alpha range
  // here for pool(), which Scan calls right after it for the same block.
  double inv_lo = 0.0;
  double inv_hi = 0.0;
  const auto add_range = [&](int cell) {
    for (int w : rcell_members_[static_cast<std::size_t>(cell)]) {
      const std::size_t sw = static_cast<std::size_t>(w);
      const double cf = k.cf_[sw];
      in_lo_[sw] += cf * inv_lo * (1.0 - g);
      in_hi_[sw] += cf * inv_hi * (1.0 + g);
    }
  };
  FarFieldKernel::Scan(
      k.receiver_, rblocks_, s,
      FarFieldKernel::kBracketTol,
      [&](const FarFieldKernel::Frame&, const FarFieldKernel::Block& b,
          double lo, double hi, double* dn, double* up) {
        inv_lo = 1.0 / k.BoundPow(hi);
        inv_hi = 1.0 / k.BoundPow(lo);
        *dn = b.cf_sum * inv_lo;
        *up = b.cf_sum * inv_hi;
        return true;
      },
      [&](const FarFieldKernel::Frame& f, double, double) {
        // The block's level-0 cells: a rectangle of the grid, clipped.
        const FarFieldKernel::Level& grid = k.receiver_.levels[0];
        const int x_end = std::min((f.x + 1) << f.level, grid.cols);
        const int y_end = std::min((f.y + 1) << f.level, grid.rows);
        for (int y = f.y << f.level; y < y_end; ++y) {
          for (int x = f.x << f.level; x < x_end; ++x) {
            const int cell = k.receiver_.cell_of_leaf[static_cast<std::size_t>(
                y * grid.cols + x)];
            if (cell >= 0) add_range(cell);
          }
        }
      },
      [&](int cell) {
        for (int w : rcell_members_[static_cast<std::size_t>(cell)]) {
          const std::size_t sw = static_cast<std::size_t>(w);
          const double a = k.AffectanceNear(v, w);
          in_lo_[sw] += a * (1.0 - g);
          in_hi_[sw] += a * (1.0 + g);
        }
      });
}

void FarFieldAccumulator::CatchUp(int w) const {
  const FarFieldKernel& k = *kernel_;
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

bool FarFieldAccumulator::InWithinOne(int v) const {
  DL_CHECK(Contains(v), "far-field sums are member-only");
  const FarFieldKernel& k = *kernel_;
  const std::size_t sv = static_cast<std::size_t>(v);
  // The clamped in-sum never exceeds the raw one, so a raw bracket clear of
  // the band certifies the dense decision: every term is then < 1, and the
  // dense clamped fold equals its raw fold.
  if (k.pooled_ && in_hi_[sv] <= 1.0 - FarFieldKernel::kBand) {
    FarFieldCertifiedAcceptCounter().Add();
    return true;
  }
  // The caught-up clamped fold, bit-identical to the dense In(v).
  CatchUp(v);
  return in_m_[sv] <= 1.0;
}

FarFieldKernel::Interval FarFieldAccumulator::CandidateInBounds(
    int v, double tol, bool clamp) const {
  return kernel_->InBounds(
      sblocks_,
      [&](int cell) -> const std::vector<int>& {
        return scell_members_[static_cast<std::size_t>(cell)];
      },
      v, tol, clamp);
}

FarFieldKernel::Interval FarFieldAccumulator::CandidateOutClampedBounds(
    int v, double tol) const {
  const FarFieldKernel& k = *kernel_;
  return FarFieldKernel::PooledInterval(
      k.receiver_, rblocks_, k.senders_[static_cast<std::size_t>(v)], tol,
      [&](const FarFieldKernel::Frame&, const FarFieldKernel::Block& b,
          double lo, double hi, double* dn, double* up) {
        // A block pools only when the per-member *lower* ends cannot clamp
        // (cf_max / d_hi^alpha <= 1); otherwise sum-and-max aggregates
        // cannot bound sum-of-min from below and the block is opened.
        const double inv_hi = 1.0 / k.BoundPow(hi);
        if (b.cf_max * inv_hi > 1.0) return false;
        const double cnt = static_cast<double>(b.count);
        const double phi_sum = b.cf_sum / k.BoundPow(lo);
        *dn = b.cf_sum * inv_hi;
        *up = phi_sum < cnt ? phi_sum : cnt;
        return true;
      },
      [&](int cell) {
        double sum = 0.0;
        for (int w : rcell_members_[static_cast<std::size_t>(cell)]) {
          const double a = k.AffectanceNear(v, w);
          sum += a < 1.0 ? a : 1.0;
        }
        return sum;
      });
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
  using Verdict = FarFieldKernel::Verdict;

  // (a) candidate's raw in-sum vs 1 (dense: InRaw(v) > 1.0).
  const Verdict in_v =
      k.pooled_ ? FarFieldKernel::Decide(
                      [&](double tol) {
                        return CandidateInBounds(v, tol, /*clamp=*/false);
                      },
                      1.0)
                : Verdict::kUndecided;
  if (in_v == Verdict::kAbove) return false;
  if (in_v == Verdict::kUndecided && k.InAffectanceRawExact(members_, v) > 1.0) {
    return false;
  }

  // (b) every member's headroom vs the candidate's pressure (dense:
  // InRaw(w) + AffectanceRaw(v, w) > 1.0).  Pooled, each member is first
  // certified through its precomputed d^2 thresholds -- pow-free unless the
  // pressure lands inside the 1e-9 band of the member's headroom.
  const geom::Vec2 s = k.senders_[static_cast<std::size_t>(v)];
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int w = members_[i];
    const std::size_t sw = static_cast<std::size_t>(w);
    if (k.pooled_) {
      if (in_hi_[sw] > pass_limit_[i]) RefreshHeadroom(i);
      const double d2 = (s - k.receivers_[sw]).NormSq();
      if (d2 > t2_pass_[i]) continue;
      if (d2 < t2_fail_[i]) return false;
    }
    // The dense comparison, on the caught-up exact fold.  The catch-up
    // collapses the member's brackets, so a pooled member's thresholds are
    // refreshed afterwards -- they may have been conservative from bracket
    // slack.
    CatchUp(w);
    if (in_raw_m_[sw] + k.AffectanceExact(v, w) > 1.0) return false;
    if (k.pooled_) RefreshHeadroom(i);
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
  if (kernel_->pooled_) {
    switch (FarFieldKernel::Decide(
        [&](double tol) {
          const Interval in_b = CandidateInBounds(v, tol, /*clamp=*/true);
          const Interval out_b = CandidateOutClampedBounds(v, tol);
          return Interval{in_b.lower + out_b.lower, in_b.upper + out_b.upper};
        },
        0.5)) {
      case FarFieldKernel::Verdict::kBelow:
        return true;
      case FarFieldKernel::Verdict::kAbove:
        return false;
      case FarFieldKernel::Verdict::kUndecided:
        break;
    }
  }
  return ExactBudget(v) <= 0.5;
}

bool FarFieldAccumulator::IsSeparatedFromMembers(int v, double eta,
                                                 double zeta) const {
  const FarFieldKernel& k = *kernel_;
  const std::size_t sv = static_cast<std::size_t>(v);
  const SeparationTest test(eta, zeta, k.link_decay_[sv], k.alpha_);
  const double r2_hi = test.RadiusSqHi();
  const geom::Vec2 sv_pos = k.senders_[sv];
  const geom::Vec2 rv_pos = k.receivers_[sv];

  // Whole member blocks beyond the certification radius from both of the
  // candidate's endpoints are separated wholesale (every endpoint pair
  // clears it); only members of leaves reached by either walk (by sender
  // or receiver) get the per-pair verdict.
  sep_scratch_.clear();
  const auto collect = [&](const FarFieldKernel::EndpointGrid& side,
                           const std::vector<FarFieldKernel::Block>& blocks,
                           const std::vector<std::vector<int>>& cell_members) {
    FarFieldKernel::Walk(
        side, blocks,
        [&](const FarFieldKernel::Frame&, int id) {
          const FarFieldKernel::Box& box =
              blocks[static_cast<std::size_t>(id)].box;
          return FarFieldKernel::BoxDistanceSqLower(box, sv_pos) > r2_hi &&
                 FarFieldKernel::BoxDistanceSqLower(box, rv_pos) > r2_hi;
        },
        [&](int cell) {
          for (int w : cell_members[static_cast<std::size_t>(cell)]) {
            const std::size_t sw = static_cast<std::size_t>(w);
            if (!sep_mark_[sw]) {
              sep_mark_[sw] = 1;
              sep_scratch_.push_back(w);
            }
          }
        });
  };
  collect(k.sender_, sblocks_, scell_members_);
  collect(k.receiver_, rblocks_, rcell_members_);

  bool separated = true;
  for (int w : sep_scratch_) {
    const std::size_t sw = static_cast<std::size_t>(w);
    sep_mark_[sw] = 0;  // reset while draining
    if (!separated || w == v) continue;
    separated =
        test.Separated(sv_pos, rv_pos, k.senders_[sw], k.receivers_[sw]);
  }
  return separated;
}

}  // namespace decaylib::sinr
