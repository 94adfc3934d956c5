#include "route/rr_graph.hpp"

#include <algorithm>
#include <cassert>

namespace taf::route {

namespace {

int pin_capacity(arch::TileKind k, bool output) {
  switch (k) {
    case arch::TileKind::Clb: return output ? 20 : 40;  // 2N outputs, I inputs
    case arch::TileKind::Bram: return output ? 8 : 16;
    case arch::TileKind::Dsp: return output ? 8 : 16;
    case arch::TileKind::Io: return output ? 8 : 16;  // 8 pads per tile
  }
  return 1;
}

}  // namespace

RrGraph::RrGraph(const arch::FpgaGrid& grid, const arch::ArchParams& arch)
    : grid_(&grid), arch_(&arch) {
  const int w = grid.width();
  const int h = grid.height();
  const int tracks = arch.channel_tracks;
  const int seg = std::max(1, arch.wire_segment_length);

  opin_.assign(static_cast<std::size_t>(w) * h, -1);
  ipin_.assign(static_cast<std::size_t>(w) * h, -1);

  // --- Pin nodes.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const arch::TileKind tk = grid.at(x, y);
      RrNode op;
      op.kind = RrKind::Opin;
      op.tile = {x, y};
      op.capacity = static_cast<std::int16_t>(pin_capacity(tk, true));
      opin_[static_cast<std::size_t>(index(x, y))] = static_cast<RrNodeId>(nodes_.size());
      nodes_.push_back(op);

      RrNode ip;
      ip.kind = RrKind::Ipin;
      ip.tile = {x, y};
      ip.capacity = static_cast<std::int16_t>(pin_capacity(tk, false));
      ipin_[static_cast<std::size_t>(index(x, y))] = static_cast<RrNodeId>(nodes_.size());
      nodes_.push_back(ip);
    }
  }
  num_pins_ = static_cast<int>(nodes_.size());

  // --- Wire nodes. Track t's horizontal wires start at x = t % seg and
  // repeat every `seg` columns (staggered segmentation); vertical wires
  // are symmetric in y. through_h/through_v map (tile, track) to the one
  // wire of that direction passing the tile, or -1.
  const auto tile_count = static_cast<std::size_t>(w) * h;
  const auto ntracks = static_cast<std::size_t>(tracks);
  std::vector<RrNodeId> through_h(tile_count * ntracks, -1);
  std::vector<RrNodeId> through_v(tile_count * ntracks, -1);
  auto slot = [&](int x, int y, int t) {
    return static_cast<std::size_t>(index(x, y)) * ntracks + static_cast<std::size_t>(t);
  };
  auto wire_h = [&](int x, int y, int t) { return through_h[slot(x, y, t)]; };
  auto wire_v = [&](int x, int y, int t) { return through_v[slot(x, y, t)]; };

  auto add_wire = [&](RrKind kind, int x, int y, int track, int span) {
    RrNode n;
    n.kind = kind;
    n.tile = {x, y};
    n.track = static_cast<std::int16_t>(track);
    n.span = static_cast<std::int16_t>(span);
    n.capacity = 1;
    const RrNodeId id = static_cast<RrNodeId>(nodes_.size());
    nodes_.push_back(n);
    ++num_wires_;
    for (int k = 0; k < span; ++k) {
      if (kind == RrKind::WireH) {
        through_h[slot(x + k, y, track)] = id;
      } else {
        through_v[slot(x, y + k, track)] = id;
      }
    }
  };

  for (int t = 0; t < tracks; ++t) {
    const int phase = t % seg;
    for (int y = 0; y < h; ++y) {
      for (int x = (phase == 0 ? 0 : phase - seg); x < w; x += seg) {
        const int xs = std::max(0, x);
        const int xe = std::min(w - 1, x + seg - 1);
        if (xe < xs) continue;
        add_wire(RrKind::WireH, xs, y, t, xe - xs + 1);
      }
    }
    for (int x = 0; x < w; ++x) {
      for (int y = (phase == 0 ? 0 : phase - seg); y < h; y += seg) {
        const int ys = std::max(0, y);
        const int ye = std::min(h - 1, y + seg - 1);
        if (ye < ys) continue;
        add_wire(RrKind::WireV, x, ys, t, ye - ys + 1);
      }
    }
  }

  // Every edge of the graph, possibly with duplicates, passed to
  // add(from, to). Run twice: once to size the CSR rows, once to fill them.
  auto for_each_edge = [&](auto&& add) {
    // --- OPIN -> wires passing the tile (Fc_out = W/4), IPIN taps
    // (Fc_in = W/4), both direction-balanced.
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const RrNodeId op = opin_at(x, y);
        const RrNodeId ip = ipin_at(x, y);
        for (int t = 0; t < tracks; ++t) {
          const RrNodeId wh = wire_h(x, y, t);
          const RrNodeId wv = wire_v(x, y, t);
          if (t % 2 == (x + y) % 2) {
            if (wh >= 0) add(op, wh);
            if (wv >= 0) add(op, wv);
          }
          if ((t + 2 * x + 3 * y) % 2 == 1) {
            if (wh >= 0) add(wh, ip);
            if (wv >= 0) add(wv, ip);
          }
        }
      }
    }

    // --- Switch-block edges at wire endpoints: same-direction continuation
    // (track window +-1) and perpendicular turns (track window +-2).
    // Wires behave bidirectionally: edges are added both ways.
    auto connect = [&](RrNodeId a, RrNodeId b) {
      if (a < 0 || b < 0 || a == b) return;
      add(a, b);
      add(b, a);
    };
    for (RrNodeId id = num_pins_; id < static_cast<RrNodeId>(nodes_.size()); ++id) {
      const RrNode& n = nodes_[static_cast<std::size_t>(id)];
      const bool horiz = n.kind == RrKind::WireH;
      const int xs = n.tile.x;
      const int ys = n.tile.y;
      const int xe = horiz ? xs + n.span - 1 : xs;
      const int ye = horiz ? ys : ys + n.span - 1;

      // Same-direction continuation beyond each endpoint (track window +-1,
      // as in a disjoint switch block).
      for (int dt = -1; dt <= 1; ++dt) {
        const int t2 = n.track + dt;
        if (t2 < 0 || t2 >= tracks) continue;
        if (horiz) {
          if (xe + 1 < w) connect(id, wire_h(xe + 1, ys, t2));
        } else {
          if (ye + 1 < h) connect(id, wire_v(xs, ye + 1, t2));
        }
      }
      // Perpendicular turns at both endpoints. Wilton-style track twisting:
      // turns reach the same track, its neighbour, and the reversed track
      // (W-1-t), so track bands mix after a few hops and congestion can
      // spread over the whole channel instead of saturating one band.
      const int turn_tracks[4] = {n.track, (n.track + 1) % tracks,
                                  (n.track + seg) % tracks, tracks - 1 - n.track};
      for (int t2 : turn_tracks) {
        if (horiz) {
          connect(id, wire_v(xs, ys, t2));
          connect(id, wire_v(xe, ys, t2));
        } else {
          connect(id, wire_h(xs, ys, t2));
          connect(id, wire_h(xs, ye, t2));
        }
      }
    }
  };

  // --- CSR: count, prefix-sum, fill, then sort and dedup each row in
  // place (corner cases connect twice) and close the gaps.
  const std::size_t n_nodes = nodes_.size();
  std::vector<std::uint32_t> cursor(n_nodes + 1, 0);
  for_each_edge(
      [&](RrNodeId from, RrNodeId) { ++cursor[static_cast<std::size_t>(from) + 1]; });
  for (std::size_t i = 0; i < n_nodes; ++i) cursor[i + 1] += cursor[i];
  edges_.resize(cursor[n_nodes]);
  edge_begin_ = cursor;
  for_each_edge([&](RrNodeId from, RrNodeId to) {
    edges_[cursor[static_cast<std::size_t>(from)]++] = to;
  });

  std::uint32_t out = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto first = edges_.begin() + edge_begin_[i];
    const auto last = edges_.begin() + edge_begin_[i + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    edge_begin_[i] = out;
    const auto kept = std::move(first, unique_end, edges_.begin() + out);
    out = static_cast<std::uint32_t>(kept - edges_.begin());
  }
  edge_begin_[n_nodes] = out;
  edges_.resize(out);
  edges_.shrink_to_fit();
}

}  // namespace taf::route
