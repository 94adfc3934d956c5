// Tests for the experiment runner: the work-stealing thread pool, the
// build-once FlowCache (quantized corner keys, single-build semantics
// under contention), sweep determinism (parallel == serial, bit for
// bit), and the metrics serialization.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

netlist::BenchmarkSpec spec_of(const char* name) {
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return {};
}

// ---------- thread pool ----------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleExecutorRunsInline) {
  runner::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, CallerParticipates) {
  // Even with workers available, n == 1 runs on the caller (no handoff).
  runner::ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, RethrowsTaskException) {
  runner::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  runner::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

// ---------- flow cache ----------

TEST(FlowCache, QuantizesDeviceCorners) {
  EXPECT_EQ(runner::FlowCache::quantize_t_opt(25.0),
            runner::FlowCache::quantize_t_opt(25.0000004));
  EXPECT_NE(runner::FlowCache::quantize_t_opt(25.0),
            runner::FlowCache::quantize_t_opt(25.001));

  runner::FlowCache cache;
  const auto& tech = tech::ptm22();
  const auto& a = cache.device(tech, test_arch(), 25.0);
  const auto& b = cache.device(tech, test_arch(), 25.0000004);  // same entry
  EXPECT_EQ(&a, &b);
  const auto s = cache.stats();
  EXPECT_EQ(s.device_misses, 1u);
  EXPECT_EQ(s.device_hits, 1u);
}

TEST(FlowCache, ConcurrentRequestsBuildOnce) {
  runner::FlowCache cache;
  runner::ThreadPool pool(8);
  const auto spec = spec_of("mkSMAdapter4B");
  std::vector<const core::Implementation*> got(8, nullptr);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    got[i] = &cache.implementation(spec, test_arch(), 1.0 / 16);
  });
  for (const auto* p : got) EXPECT_EQ(p, got[0]);
  const auto s = cache.stats();
  EXPECT_EQ(s.impl_misses, 1u);
  EXPECT_EQ(s.impl_hits, got.size() - 1);
}

TEST(FlowCache, DistinctKeysAreDistinctEntries) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  const auto& base = cache.implementation(spec, test_arch(), 1.0 / 16);

  arch::ArchParams narrow = test_arch();
  narrow.channel_tracks = test_arch().channel_tracks / 2;
  EXPECT_NE(&cache.implementation(spec, narrow, 1.0 / 16), &base);

  EXPECT_NE(&cache.implementation(spec, test_arch(), 1.0 / 8), &base);

  core::ImplementOptions seeded;
  seeded.seed = 7;
  EXPECT_NE(&cache.implementation(spec, test_arch(), 1.0 / 16, seeded), &base);

  // Same key again: still the original entry.
  EXPECT_EQ(&cache.implementation(spec, test_arch(), 1.0 / 16), &base);
  EXPECT_EQ(cache.stats().impl_misses, 4u);
}

TEST(FlowCache, ImplementationMatchesDirectFlow) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  const auto& cached = cache.implementation(spec, test_arch(), 1.0 / 16);
  const auto direct = core::implement(netlist::scaled(spec, 1.0 / 16), test_arch());
  EXPECT_EQ(cached.routes.success, direct->routes.success);
  EXPECT_EQ(cached.routes.iterations, direct->routes.iterations);
  EXPECT_EQ(cached.placement.pos, direct->placement.pos);
}

TEST(FlowCache, ClearResetsEntriesAndCounters) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  cache.implementation(spec, test_arch(), 1.0 / 16);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.impl_hits, 0u);
  EXPECT_EQ(s.impl_misses, 0u);
  cache.implementation(spec, test_arch(), 1.0 / 16);
  EXPECT_EQ(cache.stats().impl_misses, 1u);
}

// ---------- sweep determinism ----------

std::vector<runner::SweepCellResult> run_grid(int threads) {
  runner::FlowCache cache;
  runner::ThreadPool pool(threads);
  runner::Sweep sweep(cache, pool, tech::ptm22());
  const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                     spec_of("or1200")};
  const auto points = runner::Sweep::grid(specs, 1.0 / 16, test_arch(),
                                          /*grades=*/{25.0, 70.0},
                                          /*ambients=*/{25.0, 70.0});
  return sweep.run(points);
}

TEST(Sweep, ParallelMatchesSerialBitForBit) {
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 8u);  // 2 specs x 2 grades x 2 ambients
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i].guardband;
    const auto& p = parallel[i].guardband;
    // Exact double equality, not tolerance: same inputs, same seeds, same
    // reduction order must give the same bits whatever the scheduling.
    EXPECT_EQ(s.fmax_mhz.value(), p.fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.baseline_fmax_mhz.value(), p.baseline_fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.iterations, p.iterations) << "cell " << i;
    EXPECT_EQ(s.peak_temp_c.value(), p.peak_temp_c.value()) << "cell " << i;
    EXPECT_EQ(s.power.total_w().value(), p.power.total_w().value()) << "cell " << i;
    ASSERT_EQ(s.tile_temp_c.size(), p.tile_temp_c.size());
    EXPECT_EQ(0, std::memcmp(s.tile_temp_c.data(), p.tile_temp_c.data(),
                             s.tile_temp_c.size() * sizeof(double)))
        << "cell " << i;
    EXPECT_EQ(serial[i].metrics.name, parallel[i].metrics.name);
  }
  // Pinned regression: the auto-generated cell label must render the
  // ambient as a plain number. A units::Celsius passed straight through
  // the printf varargs boundary (caught by -Wformat during the units
  // migration) would corrupt this string on ABIs that pass single-member
  // structs on the stack.
  EXPECT_EQ(serial[0].metrics.name, "sha@D25/amb25");
  EXPECT_EQ(serial[1].metrics.name, "sha@D25/amb70");
}

TEST(Sweep, GridIsRowMajorSpecGradeAmbient) {
  const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                     spec_of("or1200")};
  const auto points = runner::Sweep::grid(specs, 1.0 / 16, test_arch(),
                                          {25.0, 70.0}, {25.0, 70.0});
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points[0].spec.name, "sha");
  EXPECT_EQ(points[0].t_opt_c, 25.0);
  EXPECT_EQ(points[0].guardband.t_amb_c.value(), 25.0);
  EXPECT_EQ(points[1].guardband.t_amb_c.value(), 70.0);
  EXPECT_EQ(points[2].t_opt_c, 70.0);
  EXPECT_EQ(points[4].spec.name, "or1200");
}

// ---------- metrics ----------

TEST(Metrics, ObserverAccumulatesPhasesAndIterations) {
  runner::TaskMetrics m;
  const core::FlowObserver obs = runner::observe_into(m);
  obs.on_phase(core::FlowPhase::Route, units::Seconds(0.25));
  obs.on_phase(core::FlowPhase::Route, units::Seconds(0.25));
  obs.on_phase(core::FlowPhase::Sta, units::Seconds(0.5));
  core::FlowObserver::IterationInfo info;
  info.iteration = 1;
  info.fmax_mhz = units::Megahertz(100.0);
  info.max_delta_c = units::Kelvin(3.0);
  obs.on_iteration(info);
  info.iteration = 2;
  info.fmax_mhz = units::Megahertz(99.0);
  info.max_delta_c = units::Kelvin(0.2);
  obs.on_iteration(info);
  EXPECT_DOUBLE_EQ(m.phases.seconds[static_cast<std::size_t>(core::FlowPhase::Route)],
                   0.5);
  EXPECT_DOUBLE_EQ(m.phases.total(), 1.0);
  EXPECT_EQ(m.iterations, 2);
}

TEST(Metrics, ReportSerializesJsonAndCsv) {
  runner::RunReport report;
  report.threads = 4;
  report.wall_s = 1.5;
  report.cache.impl_hits = 3;
  report.cache.impl_misses = 2;
  report.scalars.emplace_back("throughput_qps", 1234.5);
  report.scalars.emplace_back("latency_p99_ms", 0.25);
  runner::TaskMetrics m;
  m.name = "sha@D25/amb70";
  m.kind = "guardband";
  m.wall_s = 0.25;
  m.iterations = 3;
  m.spice_factorizations = 120;
  m.spice_pattern_reuses = 118;
  m.spice_newton_iters = 120;
  m.sta_edges_reevaluated = 450;
  m.sta_delay_cache_hits = 9000;
  m.thermal_cg_iters = 37;
  m.thermal_precond_iters = 21;
  m.transient_steps = 64;
  m.transient_cg_iters = 512;
  m.thermal_adjoint_solves = 2;
  m.replace_moves = 4096;
  m.guardband_nonconverged = 1;
  m.route_iterations = 5;
  m.route_overused_nodes = 0;
  m.route_searches = 700;
  m.route_heap_pushes = 90000;
  m.route_heap_pops = 15000;
  m.route_relaxations = 320000;
  m.phases.add(core::FlowPhase::Thermal, 0.125);
  report.tasks.push_back(m);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"impl_hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sha@D25/amb70\""), std::string::npos);
  EXPECT_NE(json.find("\"spice_factorizations\": 120"), std::string::npos);
  EXPECT_NE(json.find("\"spice_pattern_reuses\": 118"), std::string::npos);
  EXPECT_NE(json.find("\"spice_newton_iters\": 120"), std::string::npos);
  EXPECT_NE(json.find("\"sta_edges_reevaluated\": 450"), std::string::npos);
  EXPECT_NE(json.find("\"sta_delay_cache_hits\": 9000"), std::string::npos);
  EXPECT_NE(json.find("\"thermal_cg_iters\": 37"), std::string::npos);
  EXPECT_NE(json.find("\"thermal_precond_iters\": 21"), std::string::npos);
  EXPECT_NE(json.find("\"transient_steps\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"transient_cg_iters\": 512"), std::string::npos);
  EXPECT_NE(json.find("\"thermal_adjoint_solves\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"replace_moves\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"guardband_nonconverged\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"route_iterations\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"route_overused_nodes\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"route_searches\": 700"), std::string::npos);
  EXPECT_NE(json.find("\"route_heap_pushes\": 90000"), std::string::npos);
  EXPECT_NE(json.find("\"route_heap_pops\": 15000"), std::string::npos);
  EXPECT_NE(json.find("\"route_relaxations\": 320000"), std::string::npos);
  EXPECT_NE(json.find("\"thermal\":0.125000"), std::string::npos);
  EXPECT_NE(json.find("\"scalars\": {\"throughput_qps\": 1234.500000, "
                      "\"latency_p99_ms\": 0.250000}"),
            std::string::npos);

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("name,kind,wall_s,iterations,spice_factorizations,"
                     "spice_pattern_reuses,spice_newton_iters,"
                     "sta_edges_reevaluated,sta_delay_cache_hits,"
                     "thermal_cg_iters,thermal_precond_iters,"
                     "transient_steps,transient_cg_iters,"
                     "thermal_adjoint_solves,replace_moves,"
                     "guardband_nonconverged,"
                     "disk_hits,disk_misses,disk_writes,pack_s"),
            std::string::npos);
  EXPECT_NE(csv.find("sha@D25/amb70,guardband,0.250000,3,120,118,120,450,9000,37,21,"
                     "64,512,2,4096,1,0,0,0"),
            std::string::npos);
  EXPECT_NE(csv.find("thermal_s,route_iterations,route_overused_nodes,route_searches,"
                     "route_heap_pushes,route_heap_pops,route_relaxations\n"),
            std::string::npos);
  EXPECT_NE(csv.find(",0.125000,5,0,700,90000,15000,320000\n"), std::string::npos);
  EXPECT_NE(csv.find("scalar,throughput_qps,1234.500000"), std::string::npos);
  EXPECT_NE(csv.find("scalar,latency_p99_ms,0.250000"), std::string::npos);
}

TEST(Metrics, FlowCounterScopeCapturesGuardbandWork) {
  runner::FlowCache cache;
  const auto& impl = cache.implementation(spec_of("sha"), test_arch(), 1.0 / 16);
  const auto& dev = cache.device(tech::ptm22(), test_arch(), 25.0);
  runner::TaskMetrics m;
  core::GuardbandOptions opt;
  {
    const runner::FlowCounterScope scope(m);
    core::guardband(impl, dev, opt);
  }
  // The default (incremental) engine does thermal CG work every
  // iteration and re-evaluates at least the edges the first temperature
  // update dirtied; a converged run must not be flagged.
  EXPECT_GT(m.thermal_cg_iters, 0u);
  EXPECT_GT(m.sta_edges_reevaluated, 0u);
  EXPECT_EQ(m.guardband_nonconverged, 0u);
}

TEST(Metrics, RouteCounterScopeCapturesRouterWork) {
  runner::FlowCache cache;
  const auto& impl = cache.implementation(spec_of("sha"), test_arch(), 1.0 / 16);
  runner::TaskMetrics m;
  route::RouteResult r;
  {
    const runner::RouteCounterScope scope(m);
    r = route::route(impl.rr, impl.packed, impl.placement);
  }
  EXPECT_EQ(m.route_iterations, static_cast<std::uint64_t>(r.iterations));
  EXPECT_EQ(m.route_overused_nodes, static_cast<std::uint64_t>(r.overused_nodes));
  // Every search pushes its tree and pops at least the target; every
  // expanded node examines its fanout.
  EXPECT_GT(m.route_searches, 0u);
  EXPECT_GE(m.route_heap_pushes, m.route_heap_pops);
  EXPECT_GE(m.route_heap_pops, m.route_searches);
  EXPECT_GT(m.route_relaxations, m.route_heap_pops);

  // A second call on the same thread adds exactly the same work.
  runner::TaskMetrics again;
  {
    const runner::RouteCounterScope scope(again);
    route::route(impl.rr, impl.packed, impl.placement);
  }
  EXPECT_EQ(again.route_searches, m.route_searches);
  EXPECT_EQ(again.route_heap_pushes, m.route_heap_pushes);
  EXPECT_EQ(again.route_heap_pops, m.route_heap_pops);
  EXPECT_EQ(again.route_relaxations, m.route_relaxations);
}

// ---------- cross-run / cross-thread-count determinism ----------

TEST(Determinism, ImplementIsReproducibleAcrossRuns) {
  const auto spec = netlist::scaled(spec_of("or1200"), 1.0 / 16);
  const auto a = core::implement(spec, test_arch());
  const auto b = core::implement(spec, test_arch());
  EXPECT_EQ(a->placement.pos, b->placement.pos);
  EXPECT_EQ(a->routes.iterations, b->routes.iterations);
  ASSERT_EQ(a->routes.routes.size(), b->routes.routes.size());
  for (std::size_t i = 0; i < a->routes.routes.size(); ++i) {
    EXPECT_EQ(a->routes.routes[i].nodes, b->routes.routes[i].nodes) << "net " << i;
  }
}

TEST(Determinism, FullFlowMatchesAcrossThreadCountsWithIncrementalEngine) {
  // The sweep bit-equality above runs whatever engine TAF_INCREMENTAL
  // selects; this pins the incremental engine explicitly so a CI
  // environment override can't silently skip the interesting path.
  auto run = [](int threads) {
    runner::FlowCache cache;
    runner::ThreadPool pool(threads);
    runner::Sweep sweep(cache, pool, tech::ptm22());
    core::GuardbandOptions base;
    base.incremental = core::IncrementalMode::Exact;
    const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                       spec_of("diffeq1")};
    return sweep.run(runner::Sweep::grid(specs, 1.0 / 16, test_arch(), {25.0},
                                         {25.0, 70.0}, base));
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i].guardband;
    const auto& p = parallel[i].guardband;
    EXPECT_EQ(s.fmax_mhz.value(), p.fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.iterations, p.iterations) << "cell " << i;
    EXPECT_EQ(s.converged, p.converged) << "cell " << i;
    EXPECT_EQ(s.stats.edges_reevaluated, p.stats.edges_reevaluated) << "cell " << i;
    EXPECT_EQ(s.stats.cg_iterations, p.stats.cg_iterations) << "cell " << i;
    EXPECT_EQ(0, std::memcmp(s.tile_temp_c.data(), p.tile_temp_c.data(),
                             s.tile_temp_c.size() * sizeof(double)))
        << "cell " << i;
  }
}

}  // namespace
