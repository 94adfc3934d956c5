#include "runner/sweep.hpp"

#include <cstdio>
#include <utility>

#include "util/timer.hpp"

namespace taf::runner {

Sweep::Sweep(FlowCache& cache, ThreadPool& pool, tech::Technology tech)
    : cache_(&cache), pool_(&pool), tech_(std::move(tech)) {}

std::vector<SweepCellResult> Sweep::run(const std::vector<SweepPoint>& points) const {
  std::vector<SweepCellResult> results(points.size());
  pool_->parallel_for(points.size(), [&](std::size_t i) {
    const SweepPoint& p = points[i];
    SweepCellResult& cell = results[i];
    if (p.label.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s@D%g/amb%g", p.spec.name.c_str(), p.t_opt_c,
                    p.guardband.t_amb_c.value());
      cell.metrics.name = buf;
    } else {
      cell.metrics.name = p.label;
    }
    cell.metrics.kind = "guardband";
    const core::FlowObserver obs = observe_into(cell.metrics);
    const SpiceCounterScope spice_scope(cell.metrics);
    const FlowCounterScope flow_scope(cell.metrics);
    const RouteCounterScope route_scope(cell.metrics);
    const ArtifactCounterScope artifact_scope(cell.metrics);
    util::Stopwatch wall;

    // Cache misses attribute the build (characterize / implement) phases
    // to the first cell that needs the artifact.
    const coffe::DeviceModel& dev = cache_->device(tech_, p.arch, p.t_opt_c);
    core::ImplementOptions iopt;
    iopt.observer = &obs;
    const core::Implementation& impl =
        cache_->implementation(p.spec, p.arch, p.scale, iopt);

    core::GuardbandOptions gopt = p.guardband;
    gopt.observer = &obs;
    cell.guardband = core::guardband(impl, dev, gopt);
    cell.metrics.wall_s = wall.seconds();
  });
  return results;
}

std::vector<SweepPoint> Sweep::grid(const std::vector<netlist::BenchmarkSpec>& specs,
                                    double scale, const arch::ArchParams& arch,
                                    const std::vector<double>& grades_t_opt_c,
                                    const std::vector<double>& ambients_c,
                                    const core::GuardbandOptions& base) {
  std::vector<SweepPoint> points;
  points.reserve(specs.size() * grades_t_opt_c.size() * ambients_c.size());
  for (const netlist::BenchmarkSpec& spec : specs) {
    for (double grade : grades_t_opt_c) {
      for (double ambient : ambients_c) {
        SweepPoint p;
        p.spec = spec;
        p.scale = scale;
        p.arch = arch;
        p.t_opt_c = grade;
        p.guardband = base;
        p.guardband.t_amb_c = units::Celsius{ambient};
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

}  // namespace taf::runner
