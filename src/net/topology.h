// Interconnection topologies.
//
// The paper's substrate (Rediflow) is a network of partitioned-memory
// processors; recovery traffic cost depends on hop distance. We model the
// usual 1980s candidates: complete graph, ring, star, 2-D mesh, 2-D torus,
// and hypercube. Topology only answers distance/neighbour queries; routing
// is implicit (shortest path hop count scales latency).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace splice::net {

/// Processor identifier; dense [0, N).
using ProcId = std::uint32_t;
inline constexpr ProcId kNoProc = UINT32_MAX;

enum class TopologyKind : std::uint8_t {
  kComplete,
  kRing,
  kStar,      // proc 0 is the hub
  kMesh2D,    // row-major R x C grid, non-wrapping
  kTorus2D,   // row-major R x C grid, wrapping
  kHypercube, // N must be a power of two
};

[[nodiscard]] std::string_view to_string(TopologyKind kind) noexcept;
[[nodiscard]] TopologyKind parse_topology(std::string_view name);

/// Immutable topology descriptor. For meshes/tori the grid is chosen as the
/// most square factorisation of N.
class Topology {
 public:
  Topology(TopologyKind kind, ProcId count);

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] ProcId size() const noexcept { return count_; }

  /// Minimal hop distance between two processors (0 when a == b).
  [[nodiscard]] std::uint32_t hops(ProcId a, ProcId b) const;

  /// Direct neighbours of p (used by the gradient-model load balancer and
  /// by Grit-style neighbour schemes).
  [[nodiscard]] const std::vector<ProcId>& neighbors(ProcId p) const;

  /// Network diameter (max hops over all pairs).
  [[nodiscard]] std::uint32_t diameter() const noexcept { return diameter_; }

  // ---- regional node sets (fault-plan regions, §1 fault model) ------------
  // All return ascending, duplicate-free processor lists and throw
  // std::invalid_argument when the query does not apply to this topology.

  /// Mesh/torus: the rectangle of `rect_rows` x `rect_cols` nodes whose
  /// top-left corner is (row0, col0). A mesh clips the rectangle at the grid
  /// edges; a torus wraps it around.
  [[nodiscard]] std::vector<ProcId> grid_rect(std::uint32_t row0,
                                              std::uint32_t col0,
                                              std::uint32_t rect_rows,
                                              std::uint32_t rect_cols) const;

  /// Ring: `length` consecutive nodes starting at `start`, wrapping.
  [[nodiscard]] std::vector<ProcId> ring_arc(ProcId start,
                                             std::uint32_t length) const;

  /// Hypercube: every node whose address agrees with `fixed_value` on the
  /// bits of `fixed_mask` (a 2^(dims - popcount(mask)) subcube).
  [[nodiscard]] std::vector<ProcId> subcube(ProcId fixed_mask,
                                            ProcId fixed_value) const;

  /// Any topology: every node within `radius` hops of `center`, the centre
  /// included (radius 0 = just the centre).
  [[nodiscard]] std::vector<ProcId> neighborhood(ProcId center,
                                                 std::uint32_t radius) const;

  /// Mesh/torus grid shape (rows, cols); (N,1) for non-grid kinds.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> grid() const noexcept {
    return {rows_, cols_};
  }

 private:
  void build_neighbors();

  TopologyKind kind_;
  ProcId count_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::uint32_t diameter_ = 0;
  std::vector<std::vector<ProcId>> neighbors_;
};

}  // namespace splice::net
