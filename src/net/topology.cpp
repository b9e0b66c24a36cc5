#include "net/topology.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace splice::net {

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kComplete:
      return "complete";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kMesh2D:
      return "mesh";
    case TopologyKind::kTorus2D:
      return "torus";
    case TopologyKind::kHypercube:
      return "hypercube";
  }
  return "?";
}

TopologyKind parse_topology(std::string_view name) {
  if (name == "complete") return TopologyKind::kComplete;
  if (name == "ring") return TopologyKind::kRing;
  if (name == "star") return TopologyKind::kStar;
  if (name == "mesh") return TopologyKind::kMesh2D;
  if (name == "torus") return TopologyKind::kTorus2D;
  if (name == "hypercube") return TopologyKind::kHypercube;
  throw std::invalid_argument("unknown topology: " + std::string(name));
}

namespace {
/// Most-square factorisation r*c == n with r <= c.
std::pair<std::uint32_t, std::uint32_t> squarest_grid(std::uint32_t n) {
  std::uint32_t best = 1;
  for (std::uint32_t r = 1; r * r <= n; ++r) {
    if (n % r == 0) best = r;
  }
  return {best, n / best};
}
}  // namespace

Topology::Topology(TopologyKind kind, ProcId count)
    : kind_(kind), count_(count) {
  if (count_ == 0) throw std::invalid_argument("topology needs >= 1 node");
  if (kind_ == TopologyKind::kHypercube && !std::has_single_bit(count_)) {
    throw std::invalid_argument("hypercube size must be a power of two");
  }
  auto [r, c] = squarest_grid(count_);
  rows_ = r;
  cols_ = c;
  build_neighbors();
  for (ProcId a = 0; a < count_; ++a) {
    for (ProcId b = a + 1; b < count_; ++b) {
      diameter_ = std::max(diameter_, hops(a, b));
    }
  }
}

std::uint32_t Topology::hops(ProcId a, ProcId b) const {
  assert(a < count_ && b < count_);
  if (a == b) return 0;
  switch (kind_) {
    case TopologyKind::kComplete:
      return 1;
    case TopologyKind::kRing: {
      const std::uint32_t d = a > b ? a - b : b - a;
      return std::min(d, count_ - d);
    }
    case TopologyKind::kStar:
      return (a == 0 || b == 0) ? 1 : 2;
    case TopologyKind::kMesh2D: {
      const std::uint32_t ra = a / cols_, ca = a % cols_;
      const std::uint32_t rb = b / cols_, cb = b % cols_;
      const std::uint32_t dr = ra > rb ? ra - rb : rb - ra;
      const std::uint32_t dc = ca > cb ? ca - cb : cb - ca;
      return dr + dc;
    }
    case TopologyKind::kTorus2D: {
      const std::uint32_t ra = a / cols_, ca = a % cols_;
      const std::uint32_t rb = b / cols_, cb = b % cols_;
      std::uint32_t dr = ra > rb ? ra - rb : rb - ra;
      std::uint32_t dc = ca > cb ? ca - cb : cb - ca;
      dr = std::min(dr, rows_ - dr);
      dc = std::min(dc, cols_ - dc);
      return dr + dc;
    }
    case TopologyKind::kHypercube:
      return static_cast<std::uint32_t>(std::popcount(a ^ b));
  }
  return 1;
}

const std::vector<ProcId>& Topology::neighbors(ProcId p) const {
  assert(p < count_);
  return neighbors_[p];
}

void Topology::build_neighbors() {
  neighbors_.assign(count_, {});
  for (ProcId p = 0; p < count_; ++p) {
    auto& out = neighbors_[p];
    switch (kind_) {
      case TopologyKind::kComplete:
        for (ProcId q = 0; q < count_; ++q) {
          if (q != p) out.push_back(q);
        }
        break;
      case TopologyKind::kRing:
        if (count_ > 1) {
          out.push_back((p + 1) % count_);
          if (count_ > 2) out.push_back((p + count_ - 1) % count_);
        }
        break;
      case TopologyKind::kStar:
        if (p == 0) {
          for (ProcId q = 1; q < count_; ++q) out.push_back(q);
        } else {
          out.push_back(0);
        }
        break;
      case TopologyKind::kMesh2D:
      case TopologyKind::kTorus2D: {
        const std::uint32_t r = p / cols_, c = p % cols_;
        const bool wrap = kind_ == TopologyKind::kTorus2D;
        auto push = [&](std::uint32_t rr, std::uint32_t cc) {
          const ProcId q = rr * cols_ + cc;
          if (q != p) out.push_back(q);
        };
        if (c + 1 < cols_) {
          push(r, c + 1);
        } else if (wrap && cols_ > 1) {
          push(r, 0);
        }
        if (c > 0) {
          push(r, c - 1);
        } else if (wrap && cols_ > 2) {
          push(r, cols_ - 1);
        }
        if (r + 1 < rows_) {
          push(r + 1, c);
        } else if (wrap && rows_ > 1) {
          push(0, c);
        }
        if (r > 0) {
          push(r - 1, c);
        } else if (wrap && rows_ > 2) {
          push(rows_ - 1, c);
        }
        break;
      }
      case TopologyKind::kHypercube:
        for (std::uint32_t bit = 1; bit < count_; bit <<= 1) {
          out.push_back(p ^ bit);
        }
        break;
    }
  }
}

std::vector<ProcId> Topology::grid_rect(std::uint32_t row0, std::uint32_t col0,
                                        std::uint32_t rect_rows,
                                        std::uint32_t rect_cols) const {
  if (kind_ != TopologyKind::kMesh2D && kind_ != TopologyKind::kTorus2D) {
    throw std::invalid_argument("grid_rect: not a mesh/torus topology");
  }
  if (row0 >= rows_ || col0 >= cols_) {
    throw std::invalid_argument("grid_rect: corner outside the grid");
  }
  const bool wrap = kind_ == TopologyKind::kTorus2D;
  if (!wrap) {
    rect_rows = std::min(rect_rows, rows_ - row0);
    rect_cols = std::min(rect_cols, cols_ - col0);
  } else {
    rect_rows = std::min(rect_rows, rows_);
    rect_cols = std::min(rect_cols, cols_);
  }
  std::vector<ProcId> out;
  out.reserve(static_cast<std::size_t>(rect_rows) * rect_cols);
  for (std::uint32_t dr = 0; dr < rect_rows; ++dr) {
    for (std::uint32_t dc = 0; dc < rect_cols; ++dc) {
      const std::uint32_t r = (row0 + dr) % rows_;
      const std::uint32_t c = (col0 + dc) % cols_;
      out.push_back(r * cols_ + c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ProcId> Topology::ring_arc(ProcId start,
                                       std::uint32_t length) const {
  if (kind_ != TopologyKind::kRing) {
    throw std::invalid_argument("ring_arc: not a ring topology");
  }
  if (start >= count_) {
    throw std::invalid_argument("ring_arc: start outside the ring");
  }
  length = std::min(length, count_);
  std::vector<ProcId> out;
  out.reserve(length);
  for (std::uint32_t i = 0; i < length; ++i) {
    out.push_back((start + i) % count_);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ProcId> Topology::subcube(ProcId fixed_mask,
                                      ProcId fixed_value) const {
  if (kind_ != TopologyKind::kHypercube) {
    throw std::invalid_argument("subcube: not a hypercube topology");
  }
  if (fixed_mask >= count_ || (fixed_value & fixed_mask) != fixed_value) {
    throw std::invalid_argument(
        "subcube: mask/value outside the cube's address bits");
  }
  std::vector<ProcId> out;
  for (ProcId p = 0; p < count_; ++p) {
    if ((p & fixed_mask) == fixed_value) out.push_back(p);
  }
  return out;
}

std::vector<ProcId> Topology::neighborhood(ProcId center,
                                           std::uint32_t radius) const {
  if (center >= count_) {
    throw std::invalid_argument("neighborhood: centre outside the machine");
  }
  std::vector<ProcId> out;
  for (ProcId p = 0; p < count_; ++p) {
    if (hops(center, p) <= radius) out.push_back(p);
  }
  return out;
}

}  // namespace splice::net
