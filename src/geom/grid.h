// Uniform spatial hashing grid over planar points.
//
// UniformGrid buckets a set of points (addressed by caller-provided integer
// ids) into square cells of near-constant occupancy, and exposes the two
// queries nearest-neighbour style searches need: visit every id stored in
// the cells of a given Chebyshev ring around a query point, and lower-bound
// the Euclidean distance from the query point to anything a ring can hold.
// The expanding-ring pattern -- scan ring 0, 1, 2, ... and stop once the
// ring's distance lower bound proves no farther candidate can beat the
// incumbent -- turns the O(n) linear nearest-neighbour scan into an
// expected-O(1) probe at uniform density.
//
// The grid is a snapshot: it does not observe later point mutations, and
// ids are opaque to it (callers typically rebuild per round over the still
// active subset, which is O(m) with two counting passes).  Degenerate
// inputs (all points coincident, a single point) collapse to a 1 x 1 grid
// and the queries remain correct, just unpruned.
#pragma once

#include <span>
#include <vector>

#include "geom/point.h"

namespace decaylib::geom {

class UniformGrid {
 public:
  // Buckets points[ids[k]] for every k.  `target_per_cell` tunes occupancy:
  // the grid aims for roughly that many ids per cell at uniform density
  // (clamped to >= 1).  Ids must index into `points`; they need not be
  // dense or sorted.
  UniformGrid(std::span<const Vec2> points, std::span<const int> ids,
              int target_per_cell = 2);

  // Side length of a cell.
  double CellSize() const noexcept { return cell_; }

  int Cols() const noexcept { return cols_; }
  int Rows() const noexcept { return rows_; }
  int NumCells() const noexcept { return cols_ * rows_; }

  // Row-major index of the cell containing p.  Points outside the bounding
  // box clamp to the border cells, the same way every ring query addresses
  // them.
  int CellIndex(Vec2 p) const noexcept {
    return CellY(p.y) * cols_ + CellX(p.x);
  }

  // Ids stored in row-major cell `cell` (empty span for an empty cell).
  // Lets callers enumerate occupied cells once and build per-cell
  // aggregates, instead of going through ring traversal.
  std::span<const int> CellContents(int cell) const {
    const std::size_t c = static_cast<std::size_t>(cell);
    return {bucket_ids_.data() + starts_[c], starts_[c + 1] - starts_[c]};
  }

  // Lower bound on |p - q| for q stored in any cell at Chebyshev ring
  // `ring` around p's cell: 0 for rings 0 and 1 (q may share a cell border
  // with p), (ring - 1) * CellSize() beyond.  Monotone in `ring`.
  double RingDistanceLowerBound(int ring) const noexcept {
    return ring <= 1 ? 0.0 : static_cast<double>(ring - 1) * cell_;
  }

  // Calls visit(id) for every id stored in a cell at exactly Chebyshev
  // ring `ring` around p's cell (ring 0 is the cell itself).  Returns true
  // iff at least one cell of the ring intersects the grid -- once it
  // returns false, every larger ring is empty too.
  template <typename Visitor>
  bool VisitRing(Vec2 p, int ring, Visitor&& visit) const {
    const int cx = CellX(p.x);
    const int cy = CellY(p.y);
    bool any_cell = false;
    const int x_lo = cx - ring;
    const int x_hi = cx + ring;
    const int y_lo = cy - ring;
    const int y_hi = cy + ring;
    for (int y = y_lo; y <= y_hi; ++y) {
      if (y < 0 || y >= rows_) continue;
      // Interior rows of the ring only contribute their two edge columns
      // (ring 0's single row is an edge row, so step is always >= 1).
      const bool edge_row = (y == y_lo || y == y_hi);
      const int step = edge_row ? 1 : x_hi - x_lo;
      for (int x = x_lo; x <= x_hi; x += step) {
        if (x < 0 || x >= cols_) continue;
        any_cell = true;
        const std::size_t c =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(cols_) +
            static_cast<std::size_t>(x);
        for (std::size_t k = starts_[c]; k < starts_[c + 1]; ++k) {
          visit(bucket_ids_[k]);
        }
      }
    }
    return any_cell;
  }

  // Heap bytes held: the CSR offsets and the grouped ids.
  long long MemoryBytes() const noexcept {
    return static_cast<long long>(starts_.capacity() * sizeof(starts_[0]) +
                                  bucket_ids_.capacity() *
                                      sizeof(bucket_ids_[0]));
  }

 private:
  int CellX(double x) const noexcept;
  int CellY(double y) const noexcept;

  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
  std::vector<std::size_t> starts_;  // CSR offsets, cols_ * rows_ + 1
  std::vector<int> bucket_ids_;      // ids grouped by cell
};

}  // namespace decaylib::geom
