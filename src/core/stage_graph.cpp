#include "core/stage_graph.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace taf::core {

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::Netlist: return "netlist";
    case ArtifactKind::Packed: return "packed";
    case ArtifactKind::Placement: return "placement";
    case ArtifactKind::Routes: return "routes";
    case ArtifactKind::Activity: return "activity";
    case ArtifactKind::Sta: return "sta";
    case ArtifactKind::PlacementRefined: return "placement_refined";
    case ArtifactKind::RoutesRefined: return "routes_refined";
  }
  return "unknown";
}

void FlowGraph::seed_artifact(ArtifactKind kind, std::uint64_t content_hash) {
  assert(!available(kind));
  artifacts_.emplace_back(kind, content_hash);
}

bool FlowGraph::available(ArtifactKind kind) const {
  for (const auto& [k, h] : artifacts_) {
    if (k == kind) return true;
  }
  return false;
}

std::uint64_t FlowGraph::hash_of(ArtifactKind kind) const {
  for (const auto& [k, h] : artifacts_) {
    if (k == kind) return h;
  }
  assert(false && "artifact not produced");
  return 0;
}

void FlowGraph::add(FlowStage stage) {
  for (ArtifactKind input : stage.inputs) {
    if (!available(input)) {
      throw std::logic_error(std::string("FlowGraph: stage ") + stage.name +
                             " consumes " + artifact_kind_name(input) +
                             " before any stage produces it");
    }
  }
  if (available(stage.output)) {
    throw std::logic_error(std::string("FlowGraph: stage ") + stage.name +
                           " re-produces " + artifact_kind_name(stage.output));
  }
  util::Fnv1a h;
  h.add(std::string_view(stage.name));
  h.add(stage.param_hash);
  for (ArtifactKind input : stage.inputs) h.add(hash_of(input));
  stage.input_hash = h.state;
  artifacts_.emplace_back(stage.output, stage.input_hash);
  stages_.push_back(std::move(stage));
}

namespace {

/// Forwards phase durations to an observer, if any; all state is local
/// to the running task, keeping implement() re-entrant.
struct PhaseClock {
  explicit PhaseClock(const FlowObserver* obs) : obs_(obs) {}
  void mark(FlowPhase phase) {
    const double s = watch_.lap();
    if (obs_ != nullptr && obs_->on_phase) obs_->on_phase(phase, units::Seconds{s});
  }
  const FlowObserver* obs_;
  util::Stopwatch watch_;
};

}  // namespace

void FlowGraph::run(FlowBuild& build, const StageHooks* hooks) const {
  PhaseClock clock(build.opt.observer);
  util::Rng rng(build.opt.seed ^ std::hash<std::string>{}(build.spec.name));
  build.nl = netlist::generate(build.spec, rng);

  std::string payload;
  for (const FlowStage& stage : stages_) {
    bool loaded = false;
    if (hooks != nullptr && stage.storable && hooks->fetch && stage.load) {
      payload.clear();
      if (hooks->fetch(stage, payload)) {
        try {
          stage.load(build, payload);
          loaded = true;
        } catch (const util::codec::Error& e) {
          util::log_warn("flow stage %s(%s): stored artifact rejected (%s); "
                         "recomputing",
                         stage.name, build.spec.name.c_str(), e.what());
        }
      }
    }
    if (!loaded) stage.run(build);
    if (stage.finalize) stage.finalize(build);
    if (!loaded && hooks != nullptr && stage.storable && hooks->store && stage.save) {
      hooks->store(stage, stage.save(build));
    }
    clock.mark(stage.phase);
  }
}

namespace {

// --- Pack ------------------------------------------------------------------

void run_pack(FlowBuild& b) { b.packed = pack::pack(b.nl, b.arch); }

void finalize_pack(FlowBuild& b) {
  const arch::FpgaGrid grid =
      arch::FpgaGrid::fit(b.packed.count(pack::BlockKind::Clb),
                          b.packed.count(pack::BlockKind::Bram),
                          b.packed.count(pack::BlockKind::Dsp));
  b.impl = std::make_unique<Implementation>(b.arch, std::move(b.nl), grid);
  b.impl->packed = std::move(b.packed);
  b.impl->packed.source = &b.impl->nl;
}

std::string save_pack(const FlowBuild& b) {
  util::codec::Encoder e;
  pack::serialize(b.impl->packed, e);
  return e.take();
}

void load_pack(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  b.packed = pack::deserialize(d);
  d.expect_done();
}

// --- Place -----------------------------------------------------------------

void run_place(FlowBuild& b) {
  place::PlaceOptions popt;
  popt.seed = b.opt.seed;
  popt.effort = b.opt.place_effort;
  b.impl->placement = place::place(b.impl->packed, b.impl->grid, popt);
}

std::string save_place(const FlowBuild& b) {
  util::codec::Encoder e;
  place::serialize(b.impl->placement, e);
  return e.take();
}

void load_place(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  b.impl->placement = place::deserialize(d);
  d.expect_done();
}

// --- Route -----------------------------------------------------------------

void run_route(FlowBuild& b) {
  b.impl->routes = route::route(b.impl->rr, b.impl->packed, b.impl->placement,
                                b.opt.route);
}

void finalize_route(FlowBuild& b) {
  if (!b.impl->routes.success) {
    util::log_warn("implement(%s): routing left %d overused nodes after %d iterations",
                   b.spec.name.c_str(), b.impl->routes.overused_nodes,
                   b.impl->routes.iterations);
  }
}

std::string save_route(const FlowBuild& b) {
  util::codec::Encoder e;
  route::serialize(b.impl->routes, e);
  return e.take();
}

void load_route(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  b.impl->routes = route::deserialize(d);
  d.expect_done();
}

// --- Activity --------------------------------------------------------------

void run_activity(FlowBuild& b) { b.impl->activity = activity::estimate(b.impl->nl); }

std::string save_activity(const FlowBuild& b) {
  util::codec::Encoder e;
  activity::serialize(b.impl->activity, e);
  return e.take();
}

void load_activity(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  b.impl->activity = activity::deserialize(d);
  d.expect_done();
}

// --- ThermalPlace (place -> thermal feedback edge) -------------------------

/// Quantize adjoint prices to 1e-3 K/W before they reach the placer:
/// the two thermal backends agree only to solver tolerance (~1e-10 K/W),
/// so pricing at a granularity orders of magnitude above that makes
/// every accept decision — and hence the refined placement artifact —
/// backend-independent (same pattern as FlowCache::quantize_t_opt).
double quantize_price(double k_per_w) {
  return std::round(k_per_w * 1000.0) / 1000.0;
}

void run_thermal_place(FlowBuild& b) {
  const ThermalPlaceOptions& tp = b.opt.thermal_place;
  const coffe::DeviceModel& dev = *tp.device;
  Implementation& impl = *b.impl;
  FlowCounters& counters = thread_flow_counters();

  thermal::ThermalConfig tcfg = tp.thermal;
  const thermal::ThermalGrid tgrid(impl.grid, tcfg);
  const std::vector<double> block_w = power::block_dynamic_power(
      dev, impl.nl, impl.packed, impl.activity, tp.pricing_f_mhz);
  const std::vector<double> pricing_temp(
      static_cast<std::size_t>(impl.grid.num_tiles()), tp.pricing_temp_c.value());

  place::RefineOptions ropt;
  ropt.effort = tp.effort;
  ropt.max_rounds = tp.max_rounds;

  // Timing guard: a pass is only kept when the rerouted design is at
  // least as fast as what it replaces (STA at the uniform pricing
  // temperature). Thermal-aware refinement must never ship a slower
  // implementation — placement moves reroute nets, and routed-delay
  // perturbation would otherwise swamp the kelvin-scale thermal win.
  double fmax_best =
      timing::TimingAnalyzer(impl.nl, impl.packed, impl.placement, impl.rr,
                             impl.routes, impl.grid)
          .analyze_uniform(dev, tp.pricing_temp_c)
          .fmax_mhz.value();

  for (int pass = 0; pass < tp.passes; ++pass) {
    const power::PowerBreakdown power = power::compute_power(
        dev, impl.nl, impl.packed, impl.placement, impl.rr, impl.routes,
        impl.activity, tp.pricing_f_mhz, pricing_temp, impl.grid);
    const thermal::AdjointResult adj =
        tgrid.solve_adjoint(power.tile_w, tp.smooth_tau_k);
    counters.thermal_adjoint_solves += 1;

    place::ThermalField field;
    field.dpeak_dp_k_per_w.reserve(adj.dpeak_dp_k_per_w.size());
    for (double v : adj.dpeak_dp_k_per_w)
      field.dpeak_dp_k_per_w.push_back(quantize_price(v));
    field.block_power_w = block_w;
    field.weight = tp.weight;

    ropt.seed = b.opt.seed + static_cast<unsigned>(pass);
    place::RefineStats rstats;
    place::Placement refined = place::refine_placement(
        impl.packed, impl.grid, impl.placement, field, ropt, &rstats);
    counters.replace_moves += static_cast<std::uint64_t>(rstats.moves);
    if (rstats.accepted == 0) break;  // descent fixed point: nothing moved

    route::RouteResult rerouted =
        route::route(impl.rr, impl.packed, refined, b.opt.route);
    // An illegal reroute (overused nodes or an unreachable sink) is never
    // timed or accepted.
    if (!rerouted.success) continue;
    const double fmax_refined =
        timing::TimingAnalyzer(impl.nl, impl.packed, refined, impl.rr, rerouted,
                               impl.grid)
            .analyze_uniform(dev, tp.pricing_temp_c)
            .fmax_mhz.value();
    // Reject the pass but keep trying: the next pass draws a different
    // move sequence (seed advances with the pass index) from the same
    // placement, so one unlucky candidate does not end refinement.
    if (fmax_refined < fmax_best) continue;
    if (fmax_refined == fmax_best) {
      // Timing is flat, so the pass must pay its way thermally: require
      // the realized (not just predicted smooth-max) peak to drop.
      // The linearized model can be off by millikelvins after rerouting.
      const power::PowerBreakdown p_ref = power::compute_power(
          dev, impl.nl, impl.packed, refined, impl.rr, rerouted, impl.activity,
          tp.pricing_f_mhz, pricing_temp, impl.grid);
      const units::Celsius peak_ref =
          thermal::ThermalGrid::peak(tgrid.solve(p_ref.tile_w));
      const units::Celsius peak_now = thermal::ThermalGrid::peak(adj.temp_c);
      if (!(peak_ref.value() < peak_now.value())) continue;
    }

    impl.placement = std::move(refined);
    impl.routes = std::move(rerouted);
    fmax_best = fmax_refined;
  }
}

// --- RouteRefined ----------------------------------------------------------

void run_route_refined(FlowBuild& b) {
  b.impl->routes = route::route(b.impl->rr, b.impl->packed, b.impl->placement,
                                b.opt.route);
}

// --- StaBuild --------------------------------------------------------------

void run_sta_build(FlowBuild& b) {
  b.impl->sta = std::make_unique<timing::TimingAnalyzer>(
      b.impl->nl, b.impl->packed, b.impl->placement, b.impl->rr, b.impl->routes,
      b.impl->grid);
}

}  // namespace

FlowGraph FlowGraph::standard(const netlist::BenchmarkSpec& spec,
                              const arch::ArchParams& arch,
                              const ImplementOptions& opt) {
  FlowGraph g;

  {
    util::Fnv1a h;
    h.add(netlist::spec_hash(spec));
    h.add(opt.seed);
    g.seed_artifact(ArtifactKind::Netlist, h.state);
  }

  {
    FlowStage s;
    s.name = "pack";
    s.phase = FlowPhase::Pack;
    s.output = ArtifactKind::Packed;
    s.inputs = {ArtifactKind::Netlist};
    s.param_hash = arch::params_hash(arch);
    s.storable = true;
    s.run = run_pack;
    s.finalize = finalize_pack;
    s.save = save_pack;
    s.load = load_pack;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "place";
    s.phase = FlowPhase::Place;
    s.output = ArtifactKind::Placement;
    s.inputs = {ArtifactKind::Packed};
    util::Fnv1a h;
    h.add(opt.seed);
    h.add(opt.place_effort);
    s.param_hash = h.state;
    s.storable = true;
    s.run = run_place;
    s.save = save_place;
    s.load = load_place;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "route";
    s.phase = FlowPhase::Route;
    s.output = ArtifactKind::Routes;
    s.inputs = {ArtifactKind::Packed, ArtifactKind::Placement};
    util::Fnv1a h;
    h.add(opt.route.max_iterations);
    h.add(opt.route.first_iter_pres_fac);
    h.add(opt.route.pres_fac_mult);
    h.add(opt.route.hist_fac);
    h.add(opt.route.astar_fac);
    s.param_hash = h.state;
    s.storable = true;
    s.run = run_route;
    s.finalize = finalize_route;
    s.save = save_route;
    s.load = load_route;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "activity";
    s.phase = FlowPhase::Activity;
    s.output = ArtifactKind::Activity;
    s.inputs = {ArtifactKind::Netlist};
    s.storable = true;
    s.run = run_activity;
    s.save = save_activity;
    s.load = load_activity;
    g.add(std::move(s));
  }
  const bool feedback = opt.thermal_place.enabled;
  if (feedback) {
    const ThermalPlaceOptions& tp = opt.thermal_place;
    if (tp.device == nullptr) {
      throw std::invalid_argument(
          "implement: thermal_place.enabled requires a device model for power "
          "pricing (thermal_place.device is null)");
    }
    {
      FlowStage s;
      s.name = "thermal_place";
      s.phase = FlowPhase::Place;
      s.output = ArtifactKind::PlacementRefined;
      s.inputs = {ArtifactKind::Netlist, ArtifactKind::Packed,
                  ArtifactKind::Placement, ArtifactKind::Routes,
                  ArtifactKind::Activity};
      util::Fnv1a h;
      h.add(opt.seed);
      h.add(tp.weight);
      h.add(tp.passes);
      h.add(tp.effort);
      h.add(tp.max_rounds);
      h.add(tp.smooth_tau_k.value());
      h.add(tp.pricing_f_mhz.value());
      h.add(tp.pricing_temp_c.value());
      h.add(std::string_view(tp.device->name));
      h.add(tp.device->t_opt_c.value());
      // Thermal-model knobs that shape the gradient field. The backend is
      // deliberately NOT hashed: prices are quantized far above solver
      // tolerance, so both backends produce the same refined placement.
      h.add(tp.thermal.silicon_k_w_mk);
      h.add(tp.thermal.die_thickness_um);
      h.add(tp.thermal.tile_edge_um);
      h.add(tp.thermal.package_r_k_per_w);
      s.param_hash = h.state;
      s.storable = true;
      s.run = run_thermal_place;
      s.save = save_place;
      s.load = load_place;
      g.add(std::move(s));
    }
    {
      FlowStage s;
      s.name = "route_refined";
      s.phase = FlowPhase::Route;
      s.output = ArtifactKind::RoutesRefined;
      s.inputs = {ArtifactKind::Packed, ArtifactKind::PlacementRefined};
      util::Fnv1a h;
      h.add(opt.route.max_iterations);
      h.add(opt.route.first_iter_pres_fac);
      h.add(opt.route.pres_fac_mult);
      h.add(opt.route.hist_fac);
      h.add(opt.route.astar_fac);
      s.param_hash = h.state;
      s.storable = true;
      s.run = run_route_refined;
      s.finalize = finalize_route;
      s.save = save_route;
      s.load = load_route;
      g.add(std::move(s));
    }
  }
  {
    FlowStage s;
    s.name = "sta_build";
    s.phase = FlowPhase::StaBuild;
    s.output = ArtifactKind::Sta;
    // The final STA sees the refined placement/routes when the feedback
    // edge is on — its input hash shifts with them, as it must.
    s.inputs = feedback
                   ? std::vector<ArtifactKind>{ArtifactKind::Netlist,
                                               ArtifactKind::Packed,
                                               ArtifactKind::PlacementRefined,
                                               ArtifactKind::RoutesRefined}
                   : std::vector<ArtifactKind>{ArtifactKind::Netlist,
                                               ArtifactKind::Packed,
                                               ArtifactKind::Placement,
                                               ArtifactKind::Routes};
    s.storable = false;
    s.run = run_sta_build;
    g.add(std::move(s));
  }
  return g;
}

}  // namespace taf::core
