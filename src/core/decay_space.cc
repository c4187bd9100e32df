#include "core/decay_space.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace decaylib::core {

namespace {

// True iff no two points coincide, in O(n log n) by sorting.  A NaN
// coordinate fails the test (its distance to anything is NaN, not > 0).
bool PointsDistinct(std::span<const geom::Vec2> points) {
  std::vector<geom::Vec2> sorted(points.begin(), points.end());
  for (const geom::Vec2& p : sorted) {
    if (std::isnan(p.x) || std::isnan(p.y)) return false;
  }
  std::sort(sorted.begin(), sorted.end(), [](geom::Vec2 a, geom::Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

// The dense matrix of geometric decays over `points`.  Only the upper
// triangle is evaluated and then mirrored.  That is bit-identical to
// evaluating both directions: GeometricDecay is bitwise symmetric, since
// IEEE subtraction gives a - b == -(b - a) and hypot ignores signs.
std::vector<double> GeometricMatrix(std::span<const geom::Vec2> points,
                                    double alpha) {
  const std::size_t n = points.size();
  std::vector<double> f(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double value = geom::GeometricDecay(points[i], points[j], alpha);
      DL_CHECK(value > 0.0, "decay between distinct nodes must be positive");
      f[i * n + j] = value;
      f[j * n + i] = value;
    }
  }
  return f;
}

}  // namespace

DecaySpace::DecaySpace(int n, double fill) : n_(n) {
  DL_CHECK(n >= 1, "decay space needs at least one node");
  DL_CHECK(fill > 0.0, "off-diagonal fill decay must be positive");
  f_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), fill);
  for (int i = 0; i < n; ++i) {
    f_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
       static_cast<std::size_t>(i)] = 0.0;
  }
}

DecaySpace DecaySpace::FromMatrix(const std::vector<std::vector<double>>& m) {
  const int n = static_cast<int>(m.size());
  DL_CHECK(n >= 1, "empty matrix");
  DecaySpace space(n);
  for (int i = 0; i < n; ++i) {
    DL_CHECK(static_cast<int>(m[static_cast<std::size_t>(i)].size()) == n,
             "ragged decay matrix");
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      space.Set(i, j, m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  return space;
}

DecaySpace DecaySpace::Geometric(std::span<const geom::Vec2> points,
                                 double alpha) {
  DecaySpace space = CoordinateBacked(points, alpha);
  space.Densify();
  return space;
}

DecaySpace DecaySpace::CoordinateBacked(std::span<const geom::Vec2> points,
                                        double alpha) {
  DL_CHECK(!points.empty(), "no points");
  DL_CHECK(alpha > 0.0, "path loss exponent must be positive");
  DL_CHECK(PointsDistinct(points),
           "coincident points make an invalid decay space");
  DecaySpace space;
  space.n_ = static_cast<int>(points.size());
  space.points_.assign(points.begin(), points.end());
  space.alpha_ = alpha;
  return space;
}

void DecaySpace::Densify() {
  f_ = GeometricMatrix(points_, alpha_);
  std::vector<geom::Vec2>().swap(points_);
  alpha_ = 0.0;
}

DecaySpace DecaySpace::Materialized() const {
  DecaySpace out = *this;
  if (out.IsCoordinateBacked()) out.Densify();
  return out;
}

long long DecaySpace::MemoryBytes() const noexcept {
  return static_cast<long long>(f_.capacity() * sizeof(double) +
                                points_.capacity() * sizeof(geom::Vec2));
}

std::span<const double> DecaySpace::Raw() const noexcept {
  DL_CHECK(!IsCoordinateBacked(),
           "Raw() needs a dense decay space; see Materialized()");
  return f_;
}

DecaySpace DecaySpace::FromDistancePower(
    const std::vector<std::vector<double>>& d, double alpha) {
  const int n = static_cast<int>(d.size());
  DL_CHECK(n >= 1, "empty matrix");
  DL_CHECK(alpha > 0.0, "path loss exponent must be positive");
  DecaySpace space(n);
  for (int i = 0; i < n; ++i) {
    DL_CHECK(static_cast<int>(d[static_cast<std::size_t>(i)].size()) == n,
             "ragged distance matrix");
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      space.Set(i, j,
                std::pow(d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                         alpha));
    }
  }
  return space;
}

void DecaySpace::Set(int p, int q, double value) {
  DL_CHECK(p >= 0 && p < n_ && q >= 0 && q < n_, "node id out of range");
  DL_CHECK(p != q, "diagonal decays are fixed at 0");
  DL_CHECK(value > 0.0, "decay between distinct nodes must be positive");
  if (IsCoordinateBacked()) Densify();
  f_[static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
     static_cast<std::size_t>(q)] = value;
}

void DecaySpace::SetSymmetric(int p, int q, double value) {
  Set(p, q, value);
  Set(q, p, value);
}

bool DecaySpace::IsSymmetric(double tol) const noexcept {
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      const double a = (*this)(i, j);
      const double b = (*this)(j, i);
      if (std::abs(a - b) > tol * std::max(a, b)) return false;
    }
  }
  return true;
}

double DecaySpace::MinDecay() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) best = std::min(best, (*this)(i, j));
    }
  }
  return best;
}

double DecaySpace::MaxDecay() const noexcept {
  double best = 0.0;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) best = std::max(best, (*this)(i, j));
    }
  }
  return best;
}

double DecaySpace::DecaySpread() const noexcept {
  return MaxDecay() / MinDecay();
}

std::optional<std::string> DecaySpace::Validate() const {
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      const double v = (*this)(i, j);
      if (i == j && v != 0.0) {
        return "diagonal entry f(p,p) must be 0";
      }
      if (i != j) {
        if (!(v > 0.0)) {
          return "off-diagonal decay must be positive (identity of "
                 "indiscernibles)";
        }
        if (!std::isfinite(v)) return "decay must be finite";
      }
    }
  }
  return std::nullopt;
}

DecaySpace DecaySpace::Scaled(double factor) const {
  DL_CHECK(factor > 0.0, "scale factor must be positive");
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) out.Set(i, j, (*this)(i, j) * factor);
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedMin() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::min((*this)(i, j), (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedMax() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::max((*this)(i, j), (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedGeomMean() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::sqrt((*this)(i, j) * (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::Subspace(std::span<const int> nodes) const {
  const int k = static_cast<int>(nodes.size());
  DL_CHECK(k >= 1, "empty subspace");
  DecaySpace out(k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      out.Set(i, j, (*this)(nodes[static_cast<std::size_t>(i)],
                            nodes[static_cast<std::size_t>(j)]));
    }
  }
  return out;
}

QuasiMetric::QuasiMetric(const DecaySpace& space, double zeta)
    : space_(&space), zeta_(zeta) {
  DL_CHECK(zeta > 0.0, "zeta must be positive");
}

double QuasiMetric::operator()(int p, int q) const noexcept {
  if (p == q) return 0.0;
  return std::pow((*space_)(p, q), 1.0 / zeta_);
}

int QuasiMetric::size() const noexcept { return space_->size(); }

std::vector<std::vector<double>> QuasiMetric::Matrix() const {
  const int n = size();
  std::vector<std::vector<double>> d(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          (*this)(i, j);
    }
  }
  return d;
}

double QuasiMetric::MaxTriangleViolation() const noexcept {
  const int n = size();
  double worst = 0.0;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      const double dxy = (*this)(x, y);
      for (int z = 0; z < n; ++z) {
        if (z == x || z == y) continue;
        worst = std::max(worst, dxy - (*this)(x, z) - (*this)(z, y));
      }
    }
  }
  return worst;
}

}  // namespace decaylib::core
