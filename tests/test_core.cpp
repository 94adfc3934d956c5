// Tests for the core contribution: the guardbanding flow (Algorithm 1),
// the power model, and Eq. (1) grade selection.

#include <gtest/gtest.h>

#include "core/flow.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

const coffe::Characterizer& characterizer() {
  static const coffe::Characterizer ch(tech::ptm22(), test_arch());
  return ch;
}

const core::Implementation& sha_impl() {
  static const auto impl = [] {
    netlist::BenchmarkSpec spec;
    for (const auto& s : netlist::vtr_suite()) {
      if (s.name == "sha") spec = netlist::scaled(s, 1.0 / 16);
    }
    return core::implement(spec, test_arch());
  }();
  return *impl;
}

TEST(Power, LeakageGrowsWithTemperature) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const double cold =
      power::tile_leakage(dev, arch::TileKind::Clb, test_arch(), units::Celsius(0.0)).value();
  const double hot =
      power::tile_leakage(dev, arch::TileKind::Clb, test_arch(), units::Celsius(100.0)).value();
  EXPECT_GT(hot, 2.0 * cold);
}

TEST(Power, FabricTilesLeakMoreThanIoTiles) {
  // IO tiles carry only the routing inventory; logic and hard-block
  // tiles add their cores on top.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const double io = power::tile_leakage(dev, arch::TileKind::Io, test_arch(), units::Celsius(25.0)).value();
  EXPECT_GT(io, 0.0);
  for (auto k : {arch::TileKind::Clb, arch::TileKind::Bram, arch::TileKind::Dsp}) {
    EXPECT_GT(power::tile_leakage(dev, k, test_arch(), units::Celsius(25.0)).value(), io);
  }
}

TEST(Power, DynamicScalesWithFrequency) {
  const auto& impl = sha_impl();
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 25.0);
  const auto p100 =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(100.0), temps, impl.grid);
  const auto p200 =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(200.0), temps, impl.grid);
  EXPECT_NEAR(p200.dynamic_w.value(), 2.0 * p100.dynamic_w.value(), 1e-9);
  EXPECT_NEAR(p200.leakage_w.value(), p100.leakage_w.value(), 1e-12);  // leakage is f-independent
}

TEST(Power, TilePowersSumToTotals) {
  const auto& impl = sha_impl();
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 25.0);
  const auto p =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(150.0), temps, impl.grid);
  double sum = 0.0;
  for (double w : p.tile_w) sum += w;
  EXPECT_NEAR(sum, p.total_w().value(), 1e-9);
  EXPECT_GT(p.leakage_w.value(), 0.0);
  EXPECT_GT(p.dynamic_w.value(), 0.0);
}

TEST(Guardband, GainIsPositiveAtRoomAmbient) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_GT(r.fmax_mhz.value(), r.baseline_fmax_mhz.value());
  // Paper Fig. 6: gains in the 30..52% band at 25C ambient.
  EXPECT_GT(r.gain(), 0.25);
  EXPECT_LT(r.gain(), 0.65);
}

TEST(Guardband, HotterAmbientShrinksGain) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions cool;
  cool.t_amb_c = units::Celsius(25.0);
  core::GuardbandOptions warm;
  warm.t_amb_c = units::Celsius(70.0);
  const auto r25 = core::guardband(sha_impl(), dev, cool);
  const auto r70 = core::guardband(sha_impl(), dev, warm);
  EXPECT_GT(r70.gain(), 0.0);
  EXPECT_LT(r70.gain(), r25.gain());
  // Paper Fig. 7: ~14% average at 70C ambient.
  EXPECT_LT(r70.gain(), 0.30);
}

TEST(Guardband, ConvergesWithinTenIterations) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.delta_t_c = units::Kelvin(0.2);  // stricter than default to exercise the loop
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_LE(r.iterations, 10);
  EXPECT_GE(r.iterations, 1);
}

TEST(Guardband, ConvergedFlagReflectsTheIterationBudget) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions relaxed;
  relaxed.t_amb_c = units::Celsius(25.0);
  const auto ok = core::guardband(sha_impl(), dev, relaxed);
  EXPECT_TRUE(ok.converged);

  core::GuardbandOptions starved = relaxed;
  starved.max_iterations = 1;
  starved.delta_t_c = units::Kelvin(1e-9);  // unreachably tight fixed-point criterion
  const auto bad = core::guardband(sha_impl(), dev, starved);
  EXPECT_FALSE(bad.converged);
  EXPECT_EQ(bad.iterations, 1);
}

TEST(Guardband, PowerScaleScalesTheOperatingPoint) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  core::GuardbandOptions half = opt;
  half.power_scale = 0.5;
  const auto full = core::guardband(sha_impl(), dev, opt);
  const auto dimmed = core::guardband(sha_impl(), dev, half);
  // Less heat, cooler die, faster (or equal) clock.
  EXPECT_LT(dimmed.peak_temp_c.value(), full.peak_temp_c.value());
  EXPECT_GE(dimmed.fmax_mhz.value(), full.fmax_mhz.value());
  EXPECT_LT(dimmed.power.total_w().value(), full.power.total_w().value());
}

TEST(Guardband, IncrementalStatsAreReportedAndOffModeDoesNoSessionWork) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions inc;
  inc.t_amb_c = units::Celsius(25.0);
  inc.incremental = core::IncrementalMode::Exact;
  const auto r = core::guardband(sha_impl(), dev, inc);
  EXPECT_GT(r.stats.cg_iterations, 0u);
  EXPECT_GT(r.stats.edges_reevaluated, 0u);

  core::GuardbandOptions off = inc;
  off.incremental = core::IncrementalMode::Off;
  const auto legacy = core::guardband(sha_impl(), dev, off);
  EXPECT_EQ(legacy.stats.edges_reevaluated, 0u);
  EXPECT_EQ(legacy.stats.delay_cache_hits, 0u);
  EXPECT_GT(legacy.stats.cg_iterations, 0u);  // CG work is counted either way
}

TEST(Guardband, TemperaturesStayAboveAmbientAndBelowWorst) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_GE(r.peak_temp_c.value(), 25.0);
  EXPECT_LT(r.peak_temp_c.value(), 100.0);
  EXPECT_GE(r.mean_temp_c.value(), 25.0);
  EXPECT_LE(r.mean_temp_c.value(), r.peak_temp_c.value());
  // Paper: temperature converged after ~2C rise at these activity levels.
  EXPECT_LT(r.peak_temp_c.value() - 25.0, 12.0);
}

TEST(Guardband, BaselineMatchesWorstCaseSta) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  const auto sta100 = sha_impl().sta->analyze_uniform(dev, units::Celsius(100.0));
  EXPECT_NEAR(r.baseline_fmax_mhz.value(), sta100.fmax_mhz.value(), 1e-9);
}

TEST(Guardband, MarginReducesFrequency) {
  // A larger delta-T margin must never increase the reported frequency.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions tight;
  tight.t_amb_c = units::Celsius(25.0);
  tight.delta_t_c = units::Kelvin(0.5);
  core::GuardbandOptions loose;
  loose.t_amb_c = units::Celsius(25.0);
  loose.delta_t_c = units::Kelvin(5.0);
  const auto rt = core::guardband(sha_impl(), dev, tight);
  const auto rl = core::guardband(sha_impl(), dev, loose);
  EXPECT_LE(rl.fmax_mhz.value(), rt.fmax_mhz.value());
}

TEST(Guardband, PowerIsReportedAtTheOperatingPoint) {
  // Regression: the loop used to return the power computed with the
  // *previous* iterate's fmax and pre-update temperatures. The reported
  // breakdown must match a fresh evaluation at the converged temperature
  // map and the margin-applied frequency.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const auto& impl = sha_impl();
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.delta_t_c = units::Kelvin(0.2);  // force a couple of iterations
  const auto r = core::guardband(impl, dev, opt);
  ASSERT_EQ(r.tile_temp_c.size(), static_cast<std::size_t>(impl.grid.num_tiles()));
  const auto expected =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, r.fmax_mhz, r.tile_temp_c,
                           impl.grid);
  EXPECT_DOUBLE_EQ(r.power.dynamic_w.value(), expected.dynamic_w.value());
  EXPECT_DOUBLE_EQ(r.power.leakage_w.value(), expected.leakage_w.value());
  EXPECT_DOUBLE_EQ(r.power.total_w().value(), expected.total_w().value());
  // The typed accessor views the same bulk payload.
  EXPECT_DOUBLE_EQ(r.tile_temp(0).value(), r.tile_temp_c[0]);
}

TEST(Guardband, ZeroIterationsStillReportsPower) {
  // Regression: with max_iterations == 0 the loop body never ran and the
  // result used to carry an all-zero PowerBreakdown.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.max_iterations = 0;
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_GT(r.power.dynamic_w.value(), 0.0);
  EXPECT_GT(r.power.leakage_w.value(), 0.0);
}

TEST(Grade, SelectionFollowsFieldRange) {
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  // Cold field -> cold-corner device wins; hot field -> hot corner wins.
  const int cold = core::select_grade(devices, units::Celsius(0.0), units::Celsius(20.0));
  const int hot = core::select_grade(devices, units::Celsius(80.0), units::Celsius(100.0));
  EXPECT_LT(devices[static_cast<std::size_t>(cold)].t_opt_c,
            devices[static_cast<std::size_t>(hot)].t_opt_c);
}

TEST(Grade, ThrowsOnEmptyDeviceList) {
  EXPECT_THROW(core::select_grade({}, units::Celsius(0.0), units::Celsius(100.0)), std::invalid_argument);
}

TEST(Grade, SingleDeviceAlwaysSelected) {
  std::vector<coffe::DeviceModel> devices;
  devices.push_back(characterizer().characterize(units::Celsius(70.0)));
  EXPECT_EQ(core::select_grade(devices, units::Celsius(0.0), units::Celsius(100.0)), 0);
  EXPECT_EQ(core::select_grade(devices, units::Celsius(25.0), units::Celsius(25.0)), 0);
}

TEST(Grade, DegenerateRangeComparesPointDelay) {
  // t_min == t_max would divide by zero in the trapezoid expectation; the
  // contract is to compare rep_cp_delay at the single temperature, so the
  // device optimized for that exact corner must win.
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  const int at70 =
      core::select_grade(devices, units::Celsius(70.0), units::Celsius(70.0));
  int best = 0;
  double best_d = devices[0].rep_cp_delay(units::Celsius(70.0)).value();
  for (int i = 1; i < 4; ++i) {
    const double d =
        devices[static_cast<std::size_t>(i)].rep_cp_delay(units::Celsius(70.0)).value();
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  EXPECT_EQ(at70, best);
}

TEST(Grade, ReversedRangeIsNormalized) {
  // (t_max, t_min) in the wrong order selects the same grade as the
  // normalized range instead of hitting UB in the expectation integral.
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  EXPECT_EQ(core::select_grade(devices, units::Celsius(100.0), units::Celsius(80.0)),
            core::select_grade(devices, units::Celsius(80.0), units::Celsius(100.0)));
  EXPECT_EQ(core::select_grade(devices, units::Celsius(20.0), units::Celsius(0.0)),
            core::select_grade(devices, units::Celsius(0.0), units::Celsius(20.0)));
}

TEST(Implement, ReportsRoutedDesign) {
  const auto& impl = sha_impl();
  EXPECT_TRUE(impl.routes.success);
  EXPECT_TRUE(impl.sta != nullptr);
  EXPECT_EQ(impl.activity.size(), impl.nl.nets().size());
  EXPECT_EQ(impl.nl.validate(), "");
}

TEST(Implement, ThermalPlaceNeverAcceptsAnIllegalReroute) {
  // sha at W = 32 with two PathFinder rounds is left congested, and so are
  // the reroutes of its refined candidates. A refined placement may only
  // replace the blind one together with a legal route.
  netlist::BenchmarkSpec spec;
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == "sha") spec = netlist::scaled(s, 1.0 / 16);
  }
  arch::ArchParams narrow = test_arch();
  narrow.channel_tracks = 32;
  core::ImplementOptions opt;
  opt.route.max_iterations = 2;
  const auto blind = core::implement(spec, narrow, opt);
  ASSERT_FALSE(blind->routes.success);

  const coffe::DeviceModel dev = characterizer().characterize(units::Celsius(25.0));
  opt.thermal_place.enabled = true;
  opt.thermal_place.device = &dev;
  const auto aware = core::implement(spec, narrow, opt);
  if (aware->placement.pos != blind->placement.pos) {
    EXPECT_TRUE(aware->routes.success) << "a refined placement shipped with an illegal route";
  }
}

void expect_bit_identical(const core::GuardbandResult& solo,
                          const core::GuardbandResult& batch) {
  EXPECT_EQ(solo.fmax_mhz.value(), batch.fmax_mhz.value());
  EXPECT_EQ(solo.baseline_fmax_mhz.value(), batch.baseline_fmax_mhz.value());
  EXPECT_EQ(solo.iterations, batch.iterations);
  EXPECT_EQ(solo.converged, batch.converged);
  EXPECT_EQ(solo.stats.edges_reevaluated, batch.stats.edges_reevaluated);
  EXPECT_EQ(solo.stats.delay_cache_hits, batch.stats.delay_cache_hits);
  EXPECT_EQ(solo.stats.cg_iterations, batch.stats.cg_iterations);
  EXPECT_EQ(solo.stats.precond_cg_iterations, batch.stats.precond_cg_iterations);
  ASSERT_EQ(solo.tile_temp_c.size(), batch.tile_temp_c.size());
  for (std::size_t i = 0; i < solo.tile_temp_c.size(); ++i) {
    ASSERT_EQ(solo.tile_temp_c[i], batch.tile_temp_c[i]) << "tile " << i;
  }
  EXPECT_EQ(solo.peak_temp_c.value(), batch.peak_temp_c.value());
  EXPECT_EQ(solo.mean_temp_c.value(), batch.mean_temp_c.value());
  EXPECT_EQ(solo.timing.critical_path_ps.value(), batch.timing.critical_path_ps.value());
  EXPECT_EQ(solo.power.dynamic_w.value(), batch.power.dynamic_w.value());
  EXPECT_EQ(solo.power.leakage_w.value(), batch.power.leakage_w.value());
}

TEST(GuardbandBatch, WithCornerSubstitutesOnlyAmbientAndPowerScale) {
  core::GuardbandOptions base;
  base.delta_t_c = units::Kelvin(0.3);
  base.max_iterations = 7;
  base.power_scale = 2.0;
  const core::GuardbandCorner corner{units::Celsius(55.0), 0.5};
  const core::GuardbandOptions opt = core::with_corner(base, corner);
  EXPECT_EQ(opt.t_amb_c.value(), 55.0);
  EXPECT_EQ(opt.power_scale, 0.5);
  EXPECT_EQ(opt.delta_t_c.value(), base.delta_t_c.value());
  EXPECT_EQ(opt.max_iterations, base.max_iterations);
  EXPECT_EQ(opt.incremental, base.incremental);
}

TEST(GuardbandBatch, BitIdenticalToSequentialCornerLoop) {
  // The corner-batching contract (flow.hpp): results[k] must equal a
  // standalone guardband() at with_corner(base, corners[k]) bit for bit
  // — whatever the batch composition, the shared stencil traversal
  // cannot perturb any corner's arithmetic.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions base;
  base.delta_t_c = units::Kelvin(0.2);  // make the loop iterate
  base.incremental = core::IncrementalMode::Exact;
  base.thermal.backend = thermal::ThermalBackend::Stencil;
  const std::vector<core::GuardbandCorner> corners = {
      {units::Celsius(25.0), 1.0},
      {units::Celsius(55.0), 0.75},
      {units::Celsius(70.0), 1.0},
      {units::Celsius(25.0), 0.5},
  };
  const auto batch = core::guardband_batch(sha_impl(), dev, base, corners);
  ASSERT_EQ(batch.size(), corners.size());
  for (std::size_t k = 0; k < corners.size(); ++k) {
    SCOPED_TRACE("corner " + std::to_string(k));
    const auto solo = core::guardband(sha_impl(), dev, core::with_corner(base, corners[k]));
    expect_bit_identical(solo, batch[k]);
  }
}

TEST(GuardbandBatch, FallbackPathsStayBitIdentical) {
  // Off mode (cold per-corner solves) and the generic oracle backend
  // never engage the shared traversal but run the same lockstep loop —
  // still pinned bit-identical to the sequential corner loop.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const std::vector<core::GuardbandCorner> corners = {
      {units::Celsius(25.0), 1.0},
      {units::Celsius(70.0), 0.75},
  };
  for (const bool generic : {false, true}) {
    for (const auto mode : {core::IncrementalMode::Off, core::IncrementalMode::Exact}) {
      core::GuardbandOptions base;
      base.delta_t_c = units::Kelvin(0.2);
      base.incremental = mode;
      base.thermal.backend =
          generic ? thermal::ThermalBackend::Generic : thermal::ThermalBackend::Stencil;
      SCOPED_TRACE(std::string(generic ? "generic" : "stencil") + "/" +
                   core::incremental_mode_name(mode));
      const auto batch = core::guardband_batch(sha_impl(), dev, base, corners);
      ASSERT_EQ(batch.size(), corners.size());
      for (std::size_t k = 0; k < corners.size(); ++k) {
        SCOPED_TRACE("corner " + std::to_string(k));
        const auto solo =
            core::guardband(sha_impl(), dev, core::with_corner(base, corners[k]));
        expect_bit_identical(solo, batch[k]);
      }
    }
  }
}

TEST(GuardbandBatch, EmptyAndSingletonBatches) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions base;
  EXPECT_TRUE(core::guardband_batch(sha_impl(), dev, base, {}).empty());
  const std::vector<core::GuardbandCorner> one = {{units::Celsius(40.0), 1.0}};
  const auto batch = core::guardband_batch(sha_impl(), dev, base, one);
  ASSERT_EQ(batch.size(), 1u);
  expect_bit_identical(core::guardband(sha_impl(), dev, core::with_corner(base, one[0])),
                       batch[0]);
}

TEST(Implement, Fig8ArchOptimizationDirection) {
  // The paper's Fig. 8 experiment in miniature: at a 70C field, the
  // 70C-optimized device must clock at least as fast as the 25C device
  // (both thermally guardbanded). ~6.7% average in the paper.
  const auto d25 = characterizer().characterize(units::Celsius(25.0));
  const auto d70 = characterizer().characterize(units::Celsius(70.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(70.0);
  const auto r25 = core::guardband(sha_impl(), d25, opt);
  const auto r70 = core::guardband(sha_impl(), d70, opt);
  EXPECT_GE(r70.fmax_mhz.value(), r25.fmax_mhz.value() * 0.995);
}

}  // namespace
