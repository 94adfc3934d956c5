// google-benchmark microbenchmarks of the flow's computational kernels:
// SPICE transient, Elmore evaluation, thermal solve, STA, RR-graph
// construction and PathFinder routing.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "coffe/path_eval.hpp"
#include "spice/solver.hpp"
#include "thermal/thermal_grid.hpp"

namespace {

using namespace taf;

void BM_ElmoreDelay(benchmark::State& state) {
  const auto tech = tech::ptm22();
  const auto spec = coffe::lut_spec(bench::bench_arch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(coffe::elmore_delay_ps(spec, tech, units::Celsius(45.0)));
  }
}
BENCHMARK(BM_ElmoreDelay);

void BM_SpiceTransientLut(benchmark::State& state) {
  const auto tech = tech::ptm22();
  const auto spec = coffe::lut_spec(bench::bench_arch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(coffe::spice_delay_ps(spec, tech, units::Celsius(45.0)));
  }
}
BENCHMARK(BM_SpiceTransientLut)->Unit(benchmark::kMillisecond);

/// Same workload with an explicitly pinned linear backend, for
/// sparse-vs-dense A/B comparisons regardless of TAF_SPICE_BACKEND.
void BM_SpiceTransientLutBackend(benchmark::State& state, spice::LinearBackend backend) {
  const auto tech = tech::ptm22();
  const auto spec = coffe::lut_spec(bench::bench_arch());
  const auto probe = coffe::build_path_circuit(spec, tech, units::Celsius(45.0));
  spice::SolverOptions opt;
  opt.temp_c = units::Celsius(45.0);
  opt.dt_ps = probe.dt_ps;
  opt.backend = backend;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::solve_transient(probe.circuit, tech, opt, probe.t_stop_ps));
  }
}
void BM_SpiceTransientLutSparse(benchmark::State& state) {
  BM_SpiceTransientLutBackend(state, spice::LinearBackend::Sparse);
}
void BM_SpiceTransientLutDense(benchmark::State& state) {
  BM_SpiceTransientLutBackend(state, spice::LinearBackend::Dense);
}
BENCHMARK(BM_SpiceTransientLutSparse)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpiceTransientLutDense)->Unit(benchmark::kMillisecond);

void BM_ThermalSolve(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const arch::FpgaGrid grid(n, n);
  const thermal::ThermalGrid tg(grid, {});
  std::vector<double> p(static_cast<std::size_t>(n) * n, 1e-4);
  p[static_cast<std::size_t>(n * n / 2)] = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.solve(p));
  }
}
BENCHMARK(BM_ThermalSolve)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// Guardband-cell thermal workload with an explicitly pinned backend:
/// one cold solve plus five warm-started re-solves under ~1% power
/// perturbations — the solve sequence Algorithm 1 drives per sweep
/// cell — for generic-vs-stencil A/B timing regardless of
/// TAF_THERMAL_BACKEND. The stencil/generic ratio is the tracked
/// speedup of the blocked stencil hot path (target >= 3x at 64x64).
void BM_ThermalGuardbandCell(benchmark::State& state,
                             thermal::ThermalBackend backend) {
  const auto n = static_cast<int>(state.range(0));
  const arch::FpgaGrid grid(n, n);
  thermal::ThermalConfig cfg;
  cfg.backend = backend;
  const thermal::ThermalGrid tg(grid, cfg);
  std::vector<double> p(static_cast<std::size_t>(n) * n, 1e-4);
  p[static_cast<std::size_t>(n * n / 2)] = 0.05;
  std::vector<double> q(p.size());
  for (auto _ : state) {
    auto temps = tg.solve(p);
    for (int iter = 1; iter <= 5; ++iter) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        q[i] = p[i] * (1.0 + 0.01 * static_cast<double>((i + static_cast<std::size_t>(iter)) % 3));
      }
      temps = tg.solve(q, temps);
    }
    benchmark::DoNotOptimize(temps);
  }
}
void BM_ThermalGuardbandCellGeneric(benchmark::State& state) {
  BM_ThermalGuardbandCell(state, thermal::ThermalBackend::Generic);
}
void BM_ThermalGuardbandCellStencil(benchmark::State& state) {
  BM_ThermalGuardbandCell(state, thermal::ThermalBackend::Stencil);
}
BENCHMARK(BM_ThermalGuardbandCellGeneric)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThermalGuardbandCellStencil)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_ThermalAwareSta(benchmark::State& state) {
  const auto& impl = bench::implementation_of("sha");
  const auto& dev = bench::device_at(25.0);
  std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 40.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl.sta->analyze(dev, temps));
  }
}
BENCHMARK(BM_ThermalAwareSta)->Unit(benchmark::kMillisecond);

void BM_GuardbandFlow(benchmark::State& state) {
  const auto& impl = bench::implementation_of("sha");
  const auto& dev = bench::device_at(25.0);
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::guardband(impl, dev, opt));
  }
}
BENCHMARK(BM_GuardbandFlow)->Unit(benchmark::kMillisecond);

/// LU8PEEng, the largest design that routes both at the suite's W = 96 and
/// at the congested W = 64, implemented at channel width `tracks`.
const core::Implementation& lu8_at(int tracks) {
  arch::ArchParams a = bench::bench_arch();
  a.channel_tracks = tracks;
  return runner::FlowCache::global().implementation(bench::suite_spec("LU8PEEng"), a,
                                                    bench::kSuiteScale);
}

void BM_RrGraphBuild(benchmark::State& state) {
  const auto& impl = lu8_at(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const route::RrGraph rr(impl.grid, impl.arch);
    benchmark::DoNotOptimize(rr.num_nodes());
  }
}
BENCHMARK(BM_RrGraphBuild)->ArgName("W")->Arg(96)->Arg(64)->Unit(benchmark::kMillisecond);

/// Full PathFinder on a fixed placement, with the router's work counters
/// per call next to the time.
void BM_Route(benchmark::State& state) {
  const auto& impl = lu8_at(static_cast<int>(state.range(0)));
  const route::RouteOptions opt = core::ImplementOptions{}.route;
  const route::RouteCounters before = route::thread_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(impl.rr, impl.packed, impl.placement, opt));
  }
  const route::RouteCounters d = route::thread_counters() - before;
  const auto per_call = [&](std::uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["iterations"] = per_call(d.iterations);
  state.counters["heap_pushes"] = per_call(d.heap_pushes);
  state.counters["relaxations"] = per_call(d.relaxations);
}
BENCHMARK(BM_Route)->ArgName("W")->Arg(96)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
