// Decay spaces (Definition 2.1 of the paper).
//
// A decay space D = (V, f) is a discrete node set V together with a mapping
// f : V x V -> R>=0 that associates a *decay* with every ordered pair of
// nodes: the multiplicative reduction in signal strength from the first node
// to the second (channel gain G_uv = 1 / f(u, v)).  Decays satisfy
// non-negativity and the identity of indiscernibles, but need *not* be
// symmetric nor satisfy the triangle inequality -- they form a pre-metric.
//
// Nodes are dense ids 0..size()-1 and the diagonal is fixed at 0 (what
// happens "at a point" is immaterial, Sec. 2.2 of the paper).  A space has
// one of two representations, invisible through operator():
//   * dense: f as a row-major n x n matrix, O(n^2) memory.  Every
//     constructor except CoordinateBacked builds this one, including
//     Geometric -- the naive oracles, QuasiMetric and the distributed
//     simulator read each entry many times and want the matrix.
//   * coordinate-backed: the planar points and alpha of a shadow-free
//     geometric space, O(n) memory; f(p, q) is evaluated on demand with
//     geom::GeometricDecay, the exact expression Geometric stores, so both
//     representations of the same points agree bit for bit.  The scenario
//     engine builds this one for every shadow-free topology
//     (engine/scenario.h).
// Raw() needs the dense form; Set/SetSymmetric densify a coordinate-backed
// space in place first, and Materialized() returns a dense copy.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"
#include "geom/point.h"

namespace decaylib::core {

class DecaySpace {
 public:
  // An n-node space with all off-diagonal decays initialised to `fill`
  // (default 1, the uniform metric).
  explicit DecaySpace(int n, double fill = 1.0);

  // Builds a space from a full n x n matrix.  Diagonal entries are ignored
  // and forced to 0.  Aborts on negative entries or a ragged matrix.
  static DecaySpace FromMatrix(const std::vector<std::vector<double>>& m);

  // Geometric decay space over planar points: f(p, q) = |p - q|^alpha.
  // This is the GEO-SINR special case; its metricity equals alpha when three
  // collinear points exist, and is at most alpha in general.  Dense.
  // Aborts on coincident points.
  static DecaySpace Geometric(std::span<const geom::Vec2> points, double alpha);

  // The same space, coordinate-backed: stores the points and alpha only and
  // evaluates entries on demand, bit-identical to Geometric's.
  static DecaySpace CoordinateBacked(std::span<const geom::Vec2> points,
                                     double alpha);

  // Geometric decay space over an explicit distance matrix (any metric):
  // f = d^alpha.
  static DecaySpace FromDistancePower(
      const std::vector<std::vector<double>>& d, double alpha);

  int size() const noexcept { return n_; }

  // f(p, q): decay of a signal sent at p as received at q.
  double operator()(int p, int q) const noexcept {
    if (points_.empty()) [[likely]] {
      return f_[static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(q)];
    }
    return Evaluate(p, q);
  }

  // Representation queries.  points() is empty and alpha() is 0 for a
  // dense space.
  bool IsCoordinateBacked() const noexcept { return !points_.empty(); }
  std::span<const geom::Vec2> points() const noexcept { return points_; }
  double alpha() const noexcept { return alpha_; }

  // Dense copy of the space (a plain copy when it is dense already).
  DecaySpace Materialized() const;

  // Bytes held by the representation: the matrix, or the points.
  long long MemoryBytes() const noexcept;

  // Sets f(p, q).  Requires p != q and value > 0 (identity of
  // indiscernibles: zero decay is reserved for p == q).  A coordinate-backed
  // space is materialised first.
  void Set(int p, int q, double value);

  // Sets both f(p, q) and f(q, p).
  void SetSymmetric(int p, int q, double value);

  // True iff |f(p,q) - f(q,p)| <= tol * max(f(p,q), f(q,p)) for all pairs.
  bool IsSymmetric(double tol = 0.0) const noexcept;

  // Smallest / largest off-diagonal decay.  Require size() >= 2.
  double MinDecay() const noexcept;
  double MaxDecay() const noexcept;

  // Ratio MaxDecay()/MinDecay(); lg of this bounds the metricity (Def. 2.2).
  double DecaySpread() const noexcept;

  // nullopt when the matrix is a valid decay space, else a human-readable
  // description of the first violated axiom.
  std::optional<std::string> Validate() const;

  // Copy with every decay multiplied by `factor` > 0.  Note that metricity
  // zeta is *not* scale-invariant (the defining inequality is not homogeneous
  // in f); benches use this to study sensitivity to calibration offsets.
  DecaySpace Scaled(double factor) const;

  // Symmetrised copies: f'(p,q) = min/max/geometric-mean of the two
  // directions.  Used to feed symmetric-only algorithms (Prop. 1 requires
  // symmetry only when the original result did).
  DecaySpace SymmetrizedMin() const;
  DecaySpace SymmetrizedMax() const;
  DecaySpace SymmetrizedGeomMean() const;

  // Restriction of the space to the given nodes (in the given order).
  DecaySpace Subspace(std::span<const int> nodes) const;

  // Direct read-only access to the backing row-major matrix.  Requires a
  // dense space (DL_CHECK); see Materialized().
  std::span<const double> Raw() const noexcept;

 private:
  DecaySpace() = default;

  double Evaluate(int p, int q) const noexcept;
  // Replaces the points by the dense matrix they define.
  void Densify();

  int n_ = 0;
  std::vector<double> f_;           // row-major n_ x n_; empty if not dense
  std::vector<geom::Vec2> points_;  // empty when dense
  double alpha_ = 0.0;
};

inline double DecaySpace::Evaluate(int p, int q) const noexcept {
  if (p == q) return 0.0;
  const double value =
      geom::GeometricDecay(points_[static_cast<std::size_t>(p)],
                           points_[static_cast<std::size_t>(q)], alpha_);
  DL_CHECK(value > 0.0, "decay between distinct nodes must be positive");
  return value;
}

// The quasi-metric induced by a decay space (Sec. 2.2): d(p,q) = f(p,q)^{1/zeta}.
// A thin view; does not copy the matrix.  When the decay space is symmetric,
// this is a metric by the definition of metricity.
class QuasiMetric {
 public:
  // `zeta` must be > 0; callers normally pass ComputeMetricity(space).zeta.
  QuasiMetric(const DecaySpace& space, double zeta);

  double operator()(int p, int q) const noexcept;
  int size() const noexcept;
  double zeta() const noexcept { return zeta_; }

  // Materialises the full quasi-distance matrix d = f^{1/zeta}.
  std::vector<std::vector<double>> Matrix() const;

  // Largest violation of the (directed) triangle inequality,
  // max_{x,y,z} [d(x,y) - d(x,z) - d(z,y)]; <= tol when zeta >= metricity.
  double MaxTriangleViolation() const noexcept;

 private:
  const DecaySpace* space_;
  double zeta_;
};

}  // namespace decaylib::core
