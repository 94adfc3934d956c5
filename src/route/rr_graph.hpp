#pragma once
// Routing-resource graph for the island-style architecture.
//
// Node kinds follow VPR: block output pins (OPIN), length-L wire segments
// in horizontal/vertical channels, and block input pins (IPIN). Switch-
// block connections join wires at their endpoints (a ~12-way window that
// matches the Table I SB mux fan-in); connection-block edges tap wires
// passing a tile into its IPIN.
//
// Fanout is stored as CSR (one row-offset array, one edge array). Pins
// are created before wires and every row is sorted by id, so each fanout
// is [pin edges][wire edges] — the router scans the short pin prefix
// without loading node kinds (DESIGN.md, "Router data layout").

#include <cstdint>
#include <span>
#include <vector>

#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"

namespace taf::route {

enum class RrKind : std::uint8_t { Opin, Ipin, WireH, WireV };

using RrNodeId = int;

struct RrNode {
  RrKind kind = RrKind::WireH;
  /// Anchor tile: for pins, the block tile; for wires, the tile at the
  /// segment start (whose SB mux drives the wire — its temperature sets
  /// the wire's delay in the thermal-aware STA).
  arch::TilePos tile;
  std::int16_t track = 0;   ///< wire track index (wires only)
  std::int16_t span = 1;    ///< tiles covered (wires only)
  std::int16_t capacity = 1;
};

class RrGraph {
 public:
  RrGraph(const arch::FpgaGrid& grid, const arch::ArchParams& arch);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const RrNode& node(RrNodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }

  /// Outgoing edges of a node, sorted by id: pins first, then wires.
  std::span<const RrNodeId> fanout(RrNodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return {edges_.data() + edge_begin_[i], edge_begin_[i + 1] - edge_begin_[i]};
  }

  /// OPIN and IPIN nodes have ids [0, num_pins()); wires follow.
  int num_pins() const { return num_pins_; }

  RrNodeId opin_at(int x, int y) const { return opin_[static_cast<std::size_t>(index(x, y))]; }
  RrNodeId ipin_at(int x, int y) const { return ipin_[static_cast<std::size_t>(index(x, y))]; }

  const arch::FpgaGrid& grid() const { return *grid_; }
  const arch::ArchParams& arch() const { return *arch_; }

  /// Total wire segments (for utilization reporting).
  int num_wires() const { return num_wires_; }

 private:
  int index(int x, int y) const { return y * grid_->width() + x; }

  const arch::FpgaGrid* grid_;
  const arch::ArchParams* arch_;
  std::vector<RrNode> nodes_;
  std::vector<std::uint32_t> edge_begin_;  ///< CSR row offsets, num_nodes() + 1
  std::vector<RrNodeId> edges_;            ///< CSR fanout targets
  std::vector<RrNodeId> opin_;
  std::vector<RrNodeId> ipin_;
  int num_pins_ = 0;
  int num_wires_ = 0;
};

}  // namespace taf::route
