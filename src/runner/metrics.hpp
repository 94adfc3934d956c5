#pragma once
// Structured instrumentation for runner tasks: per-task wall time, CAD
// phase breakdown (fed by core::FlowObserver), Algorithm 1 iteration
// counts, and the flow-cache hit/miss counters — serialized as JSON or
// CSV so sweeps are machine-analysable (EXPERIMENTS.md documents the
// format).

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "runner/artifact_store.hpp"
#include "runner/flow_cache.hpp"
#include "spice/linear.hpp"

namespace taf::runner {

/// Accumulated seconds per CAD/analysis phase.
struct PhaseTimes {
  std::array<double, core::kNumFlowPhases> seconds{};

  void add(core::FlowPhase phase, double s) {
    seconds[static_cast<std::size_t>(phase)] += s;
  }
  double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }
};

/// One unit of runner work: an implement/characterize warm-up task, a
/// guardband sweep cell, or a whole experiment.
struct TaskMetrics {
  std::string name;
  std::string kind;  ///< "implement" | "characterize" | "guardband" | "experiment"
  double wall_s = 0.0;
  int iterations = 0;  ///< Algorithm 1 iterations (guardband tasks)
  PhaseTimes phases;
  /// SPICE linear-solver work performed by this task (see EXPERIMENTS.md):
  /// numeric factorizations, how many reused a previously analyzed
  /// sparsity pattern, and total Newton iterations.
  std::uint64_t spice_factorizations = 0;
  std::uint64_t spice_pattern_reuses = 0;
  std::uint64_t spice_newton_iters = 0;
  /// Incremental guardband engine work (see EXPERIMENTS.md): connection
  /// delays re-derived vs served from cache across the Algorithm 1 loop,
  /// total thermal CG iterations, and guardband runs that exhausted
  /// max_iterations without reaching the delta_t_c fixed point.
  std::uint64_t sta_edges_reevaluated = 0;
  std::uint64_t sta_delay_cache_hits = 0;
  std::uint64_t thermal_cg_iters = 0;
  /// Subset of thermal_cg_iters run preconditioned (stencil SSOR-PCG);
  /// zero under the generic oracle backend.
  std::uint64_t thermal_precond_iters = 0;
  /// Transient-engine work (DynamicGuardband trace replays): backward-
  /// Euler steps taken and the CG iterations they cost, kept apart from
  /// the steady-state thermal counters above.
  std::uint64_t transient_steps = 0;
  std::uint64_t transient_cg_iters = 0;
  /// Place->thermal feedback work (thermal_place stage): adjoint solves
  /// and bounded re-place moves. Zero when the feature is off or the
  /// refined placement came from the artifact store.
  std::uint64_t thermal_adjoint_solves = 0;
  std::uint64_t replace_moves = 0;
  std::uint64_t guardband_nonconverged = 0;
  /// PathFinder work (route::thread_counters()): iterations and overused
  /// nodes summed over the route() calls of this task, A* searches, heap
  /// pushes and pops (stale entries included) and fanout edges examined.
  std::uint64_t route_iterations = 0;
  std::uint64_t route_overused_nodes = 0;
  std::uint64_t route_searches = 0;
  std::uint64_t route_heap_pushes = 0;
  std::uint64_t route_heap_pops = 0;
  std::uint64_t route_relaxations = 0;
  /// Disk artifact-store traffic attributable to this task (per stage:
  /// one implement build probes up to four storable stages). All zero
  /// when no store is attached.
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_writes = 0;
};

/// RAII capture of the thread-local SPICE solver counters: snapshots at
/// construction and adds the delta to the task at scope exit. Valid
/// because a runner task executes on exactly one pool thread.
class SpiceCounterScope {
 public:
  explicit SpiceCounterScope(TaskMetrics& m)
      : m_(m), before_(spice::thread_counters()) {}
  ~SpiceCounterScope() {
    const spice::SolverCounters d = spice::thread_counters() - before_;
    m_.spice_factorizations += d.factorizations;
    m_.spice_pattern_reuses += d.pattern_reuses;
    m_.spice_newton_iters += d.newton_iterations;
  }
  SpiceCounterScope(const SpiceCounterScope&) = delete;
  SpiceCounterScope& operator=(const SpiceCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  spice::SolverCounters before_;
};

/// RAII capture of the thread-local guardband flow counters, same
/// snapshot/delta contract as SpiceCounterScope.
class FlowCounterScope {
 public:
  explicit FlowCounterScope(TaskMetrics& m)
      : m_(m), before_(core::thread_flow_counters()) {}
  ~FlowCounterScope() {
    const core::FlowCounters d = core::thread_flow_counters() - before_;
    m_.sta_edges_reevaluated += d.sta_edges_reevaluated;
    m_.sta_delay_cache_hits += d.sta_delay_cache_hits;
    m_.thermal_cg_iters += d.thermal_cg_iterations;
    m_.thermal_precond_iters += d.thermal_precond_iterations;
    m_.transient_steps += d.transient_steps;
    m_.transient_cg_iters += d.transient_cg_iterations;
    m_.thermal_adjoint_solves += d.thermal_adjoint_solves;
    m_.replace_moves += d.replace_moves;
    m_.guardband_nonconverged += d.guardband_nonconverged;
  }
  FlowCounterScope(const FlowCounterScope&) = delete;
  FlowCounterScope& operator=(const FlowCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  core::FlowCounters before_;
};

/// RAII capture of the thread-local router counters, same snapshot/delta
/// contract as SpiceCounterScope.
class RouteCounterScope {
 public:
  explicit RouteCounterScope(TaskMetrics& m)
      : m_(m), before_(route::thread_counters()) {}
  ~RouteCounterScope() {
    const route::RouteCounters d = route::thread_counters() - before_;
    m_.route_iterations += d.iterations;
    m_.route_overused_nodes += d.overused_nodes;
    m_.route_searches += d.searches;
    m_.route_heap_pushes += d.heap_pushes;
    m_.route_heap_pops += d.heap_pops;
    m_.route_relaxations += d.relaxations;
  }
  RouteCounterScope(const RouteCounterScope&) = delete;
  RouteCounterScope& operator=(const RouteCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  route::RouteCounters before_;
};

/// RAII capture of the thread-local artifact-store counters, same
/// snapshot/delta contract as SpiceCounterScope.
class ArtifactCounterScope {
 public:
  explicit ArtifactCounterScope(TaskMetrics& m)
      : m_(m), before_(thread_artifact_counters()) {}
  ~ArtifactCounterScope() {
    const ArtifactCounters d = thread_artifact_counters() - before_;
    m_.disk_hits += d.disk_hits;
    m_.disk_misses += d.disk_misses;
    m_.disk_writes += d.disk_writes;
  }
  ArtifactCounterScope(const ArtifactCounterScope&) = delete;
  ArtifactCounterScope& operator=(const ArtifactCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  ArtifactCounters before_;
};

/// A full runner report: every task plus process-wide cache statistics.
struct RunReport {
  int threads = 1;
  double wall_s = 0.0;
  /// Run-level scalar metrics (throughput, latency percentiles, ...) in
  /// insertion order — the fleet simulator's p50/p99/qps live here.
  /// Serialized as a "scalars" object in to_json() and as one
  /// scalar,<name>,<value> row per entry at the top of to_csv().
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<TaskMetrics> tasks;
  FlowCache::Stats cache;

  std::string to_json() const;
  std::string to_csv() const;
};

/// Wires a FlowObserver into a TaskMetrics (phase times + iterations).
/// The observer must not outlive the metrics object.
core::FlowObserver observe_into(TaskMetrics& metrics);

}  // namespace taf::runner
