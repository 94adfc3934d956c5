#pragma once
// PathFinder negotiated-congestion router (the VPR route stage).
//
// Every block-level net is routed from its driver's OPIN to each sink's
// IPIN over the RR graph. Congestion is negotiated: present overuse is
// priced by a growing pres_fac, history cost accumulates on persistently
// overused nodes, and only congested nets are ripped up between
// iterations. A* with a weighted distance estimate accelerates each
// search.

#include <cstdint>
#include <vector>

#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/rr_graph.hpp"
#include "util/codec.hpp"

namespace taf::route {

/// The routed tree of one block-net: for each sink (same order as
/// BlockNet::sink_blocks) the node path from a tree attachment point to
/// the sink IPIN. Wire nodes on the paths define SB-hop timing.
struct NetRoute {
  /// paths[s] = RR nodes from (exclusive) tree attachment to sink IPIN
  /// (inclusive), in traversal order.
  std::vector<std::vector<RrNodeId>> paths;
  /// All RR nodes occupied by this net (deduped).
  std::vector<RrNodeId> nodes;
  /// Tree parent pointers as (node, parent) pairs; the source OPIN has no
  /// entry. Walking a sink IPIN to the source yields its full path — the
  /// thermal-aware STA prices every SB hop at its own tile temperature.
  std::vector<std::pair<RrNodeId, RrNodeId>> parents;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  int overused_nodes = 0;
  std::vector<NetRoute> routes;  ///< indexed like PackedNetlist::block_nets
  double wire_utilization = 0.0; ///< occupied wires / total wires
};

struct RouteOptions {
  int max_iterations = 30;
  double first_iter_pres_fac = 0.8;
  double pres_fac_mult = 2.0;
  double hist_fac = 1.0;
  /// Weight of the A* estimate `astar_fac * manhattan / segment_length`.
  /// The estimate is not a lower bound at any weight (it measures from a
  /// wire's anchor tile, but the wire can tap the target IPIN anywhere
  /// along its span), so this trades search effort against route
  /// quality rather than switching admissibility on or off.
  double astar_fac = 0.85;
};

RouteResult route(const RrGraph& rr, const pack::PackedNetlist& packed,
                  const place::Placement& pl, const RouteOptions& opt = {});

/// Per-thread cumulative router work, in the mold of
/// spice::thread_counters(): route() adds its totals once per call, and
/// runner tasks snapshot deltas into TaskMetrics.
struct RouteCounters {
  std::uint64_t iterations = 0;      ///< PathFinder iterations
  std::uint64_t overused_nodes = 0;  ///< RouteResult::overused_nodes at return
  std::uint64_t searches = 0;        ///< A* searches (one per sink routed)
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;       ///< stale entries included
  std::uint64_t relaxations = 0;     ///< fanout edges examined

  RouteCounters& operator+=(const RouteCounters& o) {
    iterations += o.iterations;
    overused_nodes += o.overused_nodes;
    searches += o.searches;
    heap_pushes += o.heap_pushes;
    heap_pops += o.heap_pops;
    relaxations += o.relaxations;
    return *this;
  }
  RouteCounters operator-(const RouteCounters& o) const {
    return {iterations - o.iterations, overused_nodes - o.overused_nodes,
            searches - o.searches,     heap_pushes - o.heap_pushes,
            heap_pops - o.heap_pops,   relaxations - o.relaxations};
  }
};

RouteCounters& thread_counters();

/// Artifact codec (util/codec.hpp): exact round-trip, byte-identical on
/// re-serialization. RR node ids are stored raw; they are only valid for
/// the RrGraph deterministically rebuilt from the same grid/arch.
void serialize(const RouteResult& result, util::codec::Encoder& enc);
RouteResult deserialize(util::codec::Decoder& dec);

}  // namespace taf::route
