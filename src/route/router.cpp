#include "route/router.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/log.hpp"

namespace taf::route {

namespace {

double base_cost(const RrNode& n) {
  switch (n.kind) {
    case RrKind::Opin: return 0.6;
    case RrKind::Ipin: return 0.5;
    case RrKind::WireH:
    case RrKind::WireV: return 1.0;
  }
  return 1.0;
}

/// Per-node router state, packed so that relaxing an edge touches one
/// 32-byte record.
struct NodeState {
  double bh = 0.0;         ///< base_cost * (1 + hist); refreshed when hist changes
  double best = 0.0;       ///< cheapest path cost found in the current search
  std::int32_t occ = 0;    ///< nets currently using the node
  std::uint32_t stamp = 0; ///< push stamp of the node's latest heap entry
  std::int16_t x = 0;      ///< anchor tile, for the A* distance
  std::int16_t y = 0;
  std::int16_t cap = 1;
};

/// Heap entry. The entry's path cost is not stored: an entry is live only
/// while it is its node's latest push (stamp matches), and then its cost
/// is NodeState::best.
struct HeapEntry {
  double priority;  // cost + heuristic
  RrNodeId node;
  std::uint32_t stamp;
};

/// Min-heap order on priority alone. Ties are broken by the std heap
/// algorithm's own sequence, which fixes the routes (DESIGN.md).
bool pops_later(const HeapEntry& a, const HeapEntry& b) { return a.priority > b.priority; }

/// Stamps restart before they could wrap inside one search.
constexpr std::uint32_t kStampLimit = std::numeric_limits<std::uint32_t>::max() / 2;

}  // namespace

RouteCounters& thread_counters() {
  thread_local RouteCounters counters;
  return counters;
}

RouteResult route(const RrGraph& rr, const pack::PackedNetlist& packed,
                  const place::Placement& pl, const RouteOptions& opt) {
  const int n_nodes = rr.num_nodes();
  const RrNodeId n_pins = rr.num_pins();
  const auto n_nets = static_cast<int>(packed.block_nets.size());
  const int seg = std::max(1, rr.arch().wire_segment_length);
  const int grid_w = rr.grid().width();
  const int grid_h = rr.grid().height();
  if (grid_w > std::numeric_limits<std::int16_t>::max() ||
      grid_h > std::numeric_limits<std::int16_t>::max())
    throw std::invalid_argument("route: grid dimensions exceed the int16 tile range");

  RouteResult result;
  result.routes.assign(static_cast<std::size_t>(n_nets), {});
  // Work counters stay local in the search loop; flushed once at return.
  RouteCounters work;

  std::vector<NodeState> st(static_cast<std::size_t>(n_nodes));
  std::vector<double> hist(static_cast<std::size_t>(n_nodes), 0.0);
  for (RrNodeId n = 0; n < n_nodes; ++n) {
    const RrNode& node = rr.node(n);
    NodeState& s = st[static_cast<std::size_t>(n)];
    s.bh = base_cost(node);
    s.x = static_cast<std::int16_t>(node.tile.x);
    s.y = static_cast<std::int16_t>(node.tile.y);
    s.cap = node.capacity;
  }

  auto over = [&](RrNodeId n) {
    const NodeState& s = st[static_cast<std::size_t>(n)];
    return std::max(0, s.occ - s.cap);
  };

  // A* heuristic by Manhattan distance d. Each entry is the expression
  // astar_fac * double(d) / seg itself, so priorities (and the heap's tie
  // order) do not depend on the table.
  std::vector<double> h_of_dist(static_cast<std::size_t>(grid_w + grid_h));
  for (std::size_t d = 0; d < h_of_dist.size(); ++d)
    h_of_dist[d] = opt.astar_fac * static_cast<double>(d) / seg;
  auto heuristic = [&](const NodeState& s, arch::TilePos target) {
    const int d = std::abs(s.x - target.x) + std::abs(s.y - target.y);
    return h_of_dist[static_cast<std::size_t>(d)];
  };

  double pres_fac = opt.first_iter_pres_fac;
  std::vector<RrNodeId> prev(static_cast<std::size_t>(n_nodes), -1);
  std::vector<char> in_tree(static_cast<std::size_t>(n_nodes), 0);
  std::vector<HeapEntry> heap;
  std::vector<RrNodeId> tree;
  std::vector<int> order;
  // A node was reached in the current search iff its stamp is at least
  // search_start; stamp 0 means never.
  std::uint32_t next_stamp = 1;

  // Route one net; returns false if any sink is unreachable.
  auto route_net = [&](int net_idx) -> bool {
    const auto& bn = packed.block_nets[static_cast<std::size_t>(net_idx)];
    NetRoute& nr = result.routes[static_cast<std::size_t>(net_idx)];

    // Rip up previous occupancy.
    for (RrNodeId n : nr.nodes) --st[static_cast<std::size_t>(n)].occ;
    nr.paths.assign(bn.sink_blocks.size(), {});
    nr.nodes.clear();
    nr.parents.clear();

    const arch::TilePos src_pos = pl.pos[static_cast<std::size_t>(bn.driver_block)];
    const RrNodeId source = rr.opin_at(src_pos.x, src_pos.y);

    // Route sinks nearest-first (cheap heuristic for better trees).
    order.resize(bn.sink_blocks.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto pa = pl.pos[static_cast<std::size_t>(bn.sink_blocks[static_cast<std::size_t>(a)])];
      const auto pb = pl.pos[static_cast<std::size_t>(bn.sink_blocks[static_cast<std::size_t>(b)])];
      const int da = std::abs(pa.x - src_pos.x) + std::abs(pa.y - src_pos.y);
      const int db = std::abs(pb.x - src_pos.x) + std::abs(pb.y - src_pos.y);
      return da < db;
    });

    tree.assign(1, source);
    in_tree[static_cast<std::size_t>(source)] = 1;

    bool ok = true;
    for (int sink_i : order) {
      const int sink_block = bn.sink_blocks[static_cast<std::size_t>(sink_i)];
      const arch::TilePos dst = pl.pos[static_cast<std::size_t>(sink_block)];
      const RrNodeId target = rr.ipin_at(dst.x, dst.y);

      ++work.searches;
      if (next_stamp > kStampLimit) {
        for (NodeState& s : st) s.stamp = 0;
        next_stamp = 1;
      }
      const std::uint32_t search_start = next_stamp;
      heap.clear();
      auto push = [&](RrNodeId n, NodeState& s, double cost) {
        s.best = cost;
        s.stamp = next_stamp++;
        heap.push_back({cost + heuristic(s, dst), n, s.stamp});
        std::push_heap(heap.begin(), heap.end(), pops_later);
        ++work.heap_pushes;
      };
      for (RrNodeId n : tree) {
        // Tree nodes re-usable at zero cost.
        prev[static_cast<std::size_t>(n)] = -1;
        push(n, st[static_cast<std::size_t>(n)], 0.0);
      }

      bool found = false;
      while (!heap.empty()) {
        const HeapEntry e = heap.front();
        std::pop_heap(heap.begin(), heap.end(), pops_later);
        heap.pop_back();
        ++work.heap_pops;
        const NodeState& from = st[static_cast<std::size_t>(e.node)];
        if (e.stamp != from.stamp) continue;  // superseded by a cheaper push
        if (e.node == target) {
          found = true;
          break;
        }
        const double cost = from.best;
        auto relax = [&](RrNodeId to) {
          NodeState& t = st[static_cast<std::size_t>(to)];
          const int over_after = std::max(0, t.occ + 1 - t.cap);
          const double c = cost + t.bh * (1.0 + pres_fac * over_after);
          if (t.stamp >= search_start && c >= t.best - 1e-12) return;
          prev[static_cast<std::size_t>(to)] = e.node;
          push(to, t, c);
        };
        const std::span<const RrNodeId> fan = rr.fanout(e.node);
        work.relaxations += fan.size();
        auto it = fan.begin();
        // Pin prefix: IPINs other than the target are dead ends, and
        // OPINs are never routed through.
        for (; it != fan.end() && *it < n_pins; ++it)
          if (*it == target) relax(target);
        for (; it != fan.end(); ++it) relax(*it);
      }
      if (!found) {
        ok = false;
        break;
      }
      // Trace back to the tree and commit the path.
      std::vector<RrNodeId>& path = nr.paths[static_cast<std::size_t>(sink_i)];
      for (RrNodeId n = target; n != -1 && !in_tree[static_cast<std::size_t>(n)];
           n = prev[static_cast<std::size_t>(n)]) {
        path.push_back(n);
      }
      std::reverse(path.begin(), path.end());
      for (RrNodeId n : path) {
        tree.push_back(n);
        in_tree[static_cast<std::size_t>(n)] = 1;
        nr.parents.emplace_back(n, prev[static_cast<std::size_t>(n)]);
      }
    }

    for (RrNodeId n : tree) in_tree[static_cast<std::size_t>(n)] = 0;
    if (ok) {
      nr.nodes.assign(tree.begin(), tree.end());
      std::sort(nr.nodes.begin(), nr.nodes.end());
      nr.nodes.erase(std::unique(nr.nodes.begin(), nr.nodes.end()), nr.nodes.end());
      for (RrNodeId n : nr.nodes) ++st[static_cast<std::size_t>(n)].occ;
    }
    return ok;
  };

  // --- PathFinder iterations. The reroute order rotates every iteration
  // so two nets contending for one node do not ping-pong forever.
  std::vector<char> dirty(static_cast<std::size_t>(n_nets), 1);
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    bool all_routed = true;
    const int offset = n_nets > 0 ? (iter * 7919) % n_nets : 0;
    for (int i = 0; i < n_nets; ++i) {
      const int n = (i + offset) % n_nets;
      if (!dirty[static_cast<std::size_t>(n)]) continue;
      if (!route_net(n)) all_routed = false;
    }

    // Accumulate history and find congested nets.
    int overused = 0;
    for (RrNodeId n = 0; n < n_nodes; ++n) {
      const int o = over(n);
      if (o > 0) {
        ++overused;
        double& h = hist[static_cast<std::size_t>(n)];
        h += opt.hist_fac * o;
        st[static_cast<std::size_t>(n)].bh = base_cost(rr.node(n)) * (1.0 + h);
      }
    }
    result.overused_nodes = overused;

    if (overused == 0 && all_routed) {
      result.success = true;
      break;
    }

    std::fill(dirty.begin(), dirty.end(), 0);
    for (int n = 0; n < n_nets; ++n) {
      const NetRoute& nr = result.routes[static_cast<std::size_t>(n)];
      if (nr.nodes.empty()) {
        dirty[static_cast<std::size_t>(n)] = 1;  // unrouted net
        continue;
      }
      for (RrNodeId node : nr.nodes) {
        if (over(node) > 0) {
          dirty[static_cast<std::size_t>(n)] = 1;
          break;
        }
      }
    }
    pres_fac = std::min(pres_fac * opt.pres_fac_mult, 1e6);
    util::log_debug("route: iter %d, %d overused nodes", iter, overused);
  }

  // Wires are the nodes after the pins.
  int used_wires = 0;
  for (RrNodeId n = n_pins; n < n_nodes; ++n)
    if (st[static_cast<std::size_t>(n)].occ > 0) ++used_wires;
  result.wire_utilization =
      rr.num_wires() > 0 ? static_cast<double>(used_wires) / rr.num_wires() : 0.0;
  work.iterations = static_cast<std::uint64_t>(result.iterations);
  work.overused_nodes = static_cast<std::uint64_t>(result.overused_nodes);
  thread_counters() += work;
  return result;
}

void serialize(const RouteResult& result, util::codec::Encoder& enc) {
  enc.u8(result.success ? 1 : 0);
  enc.i32(result.iterations);
  enc.i32(result.overused_nodes);
  enc.f64(result.wire_utilization);
  enc.u64(result.routes.size());
  for (const NetRoute& net : result.routes) {
    enc.u64(net.paths.size());
    for (const std::vector<RrNodeId>& path : net.paths) enc.i32_vec(path);
    enc.i32_vec(net.nodes);
    enc.u64(net.parents.size());
    for (const auto& [node, parent] : net.parents) {
      enc.i32(node);
      enc.i32(parent);
    }
  }
}

RouteResult deserialize(util::codec::Decoder& dec) {
  RouteResult result;
  result.success = dec.u8() != 0;
  result.iterations = dec.i32();
  result.overused_nodes = dec.i32();
  result.wire_utilization = dec.f64();
  const std::uint64_t num_nets = dec.u64();
  for (std::uint64_t i = 0; i < num_nets; ++i) {
    NetRoute net;
    const std::uint64_t num_paths = dec.u64();
    for (std::uint64_t p = 0; p < num_paths; ++p) net.paths.push_back(dec.i32_vec());
    net.nodes = dec.i32_vec();
    const std::uint64_t num_parents = dec.u64();
    for (std::uint64_t p = 0; p < num_parents; ++p) {
      const RrNodeId node = dec.i32();
      const RrNodeId parent = dec.i32();
      net.parents.emplace_back(node, parent);
    }
    result.routes.push_back(std::move(net));
  }
  return result;
}

}  // namespace taf::route
