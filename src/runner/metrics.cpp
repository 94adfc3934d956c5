#include "runner/metrics.hpp"

#include <cstdio>

namespace taf::runner {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void append_phases_json(std::string& out, const PhaseTimes& phases) {
  out += '{';
  for (int p = 0; p < core::kNumFlowPhases; ++p) {
    if (p > 0) out += ',';
    out += '"';
    out += core::flow_phase_name(static_cast<core::FlowPhase>(p));
    out += "\":";
    out += fmt(phases.seconds[static_cast<std::size_t>(p)]);
  }
  out += '}';
}

}  // namespace

std::string RunReport::to_json() const {
  std::string out = "{\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"wall_s\": " + fmt(wall_s) + ",\n";
  out += "  \"cache\": {\"device_hits\": " + std::to_string(cache.device_hits) +
         ", \"device_misses\": " + std::to_string(cache.device_misses) +
         ", \"impl_hits\": " + std::to_string(cache.impl_hits) +
         ", \"impl_misses\": " + std::to_string(cache.impl_misses) +
         ", \"disk_hits\": " + std::to_string(cache.disk_hits) +
         ", \"disk_misses\": " + std::to_string(cache.disk_misses) +
         ", \"disk_writes\": " + std::to_string(cache.disk_writes) +
         ", \"disk_errors\": " + std::to_string(cache.disk_errors) + "},\n";
  out += "  \"scalars\": {";
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    append_escaped(out, scalars[i].first);
    out += "\": " + fmt(scalars[i].second);
  }
  out += "},\n";
  out += "  \"tasks\": [\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskMetrics& t = tasks[i];
    out += "    {\"name\": \"";
    append_escaped(out, t.name);
    out += "\", \"kind\": \"";
    append_escaped(out, t.kind);
    out += "\", \"wall_s\": " + fmt(t.wall_s) +
           ", \"iterations\": " + std::to_string(t.iterations) +
           ", \"spice_factorizations\": " + std::to_string(t.spice_factorizations) +
           ", \"spice_pattern_reuses\": " + std::to_string(t.spice_pattern_reuses) +
           ", \"spice_newton_iters\": " + std::to_string(t.spice_newton_iters) +
           ", \"sta_edges_reevaluated\": " + std::to_string(t.sta_edges_reevaluated) +
           ", \"sta_delay_cache_hits\": " + std::to_string(t.sta_delay_cache_hits) +
           ", \"thermal_cg_iters\": " + std::to_string(t.thermal_cg_iters) +
           ", \"thermal_precond_iters\": " + std::to_string(t.thermal_precond_iters) +
           ", \"transient_steps\": " + std::to_string(t.transient_steps) +
           ", \"transient_cg_iters\": " + std::to_string(t.transient_cg_iters) +
           ", \"thermal_adjoint_solves\": " + std::to_string(t.thermal_adjoint_solves) +
           ", \"replace_moves\": " + std::to_string(t.replace_moves) +
           ", \"guardband_nonconverged\": " + std::to_string(t.guardband_nonconverged) +
           ", \"route_iterations\": " + std::to_string(t.route_iterations) +
           ", \"route_overused_nodes\": " + std::to_string(t.route_overused_nodes) +
           ", \"route_searches\": " + std::to_string(t.route_searches) +
           ", \"route_heap_pushes\": " + std::to_string(t.route_heap_pushes) +
           ", \"route_heap_pops\": " + std::to_string(t.route_heap_pops) +
           ", \"route_relaxations\": " + std::to_string(t.route_relaxations) +
           ", \"disk_hits\": " + std::to_string(t.disk_hits) +
           ", \"disk_misses\": " + std::to_string(t.disk_misses) +
           ", \"disk_writes\": " + std::to_string(t.disk_writes) +
           ", \"phases\": ";
    append_phases_json(out, t.phases);
    out += i + 1 < tasks.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string RunReport::to_csv() const {
  std::string out =
      "name,kind,wall_s,iterations,spice_factorizations,spice_pattern_reuses,"
      "spice_newton_iters,sta_edges_reevaluated,sta_delay_cache_hits,"
      "thermal_cg_iters,thermal_precond_iters,transient_steps,transient_cg_iters,"
      "thermal_adjoint_solves,replace_moves,"
      "guardband_nonconverged,disk_hits,disk_misses,disk_writes";
  for (int p = 0; p < core::kNumFlowPhases; ++p) {
    out += ',';
    out += core::flow_phase_name(static_cast<core::FlowPhase>(p));
    out += "_s";
  }
  out += ",route_iterations,route_overused_nodes,route_searches,route_heap_pushes,"
         "route_heap_pops,route_relaxations\n";
  for (const auto& [name, value] : scalars) {
    out += "scalar," + name + ',' + fmt(value) + '\n';
  }
  for (const TaskMetrics& t : tasks) {
    out += t.name + ',' + t.kind + ',' + fmt(t.wall_s) + ',' +
           std::to_string(t.iterations) + ',' +
           std::to_string(t.spice_factorizations) + ',' +
           std::to_string(t.spice_pattern_reuses) + ',' +
           std::to_string(t.spice_newton_iters) + ',' +
           std::to_string(t.sta_edges_reevaluated) + ',' +
           std::to_string(t.sta_delay_cache_hits) + ',' +
           std::to_string(t.thermal_cg_iters) + ',' +
           std::to_string(t.thermal_precond_iters) + ',' +
           std::to_string(t.transient_steps) + ',' +
           std::to_string(t.transient_cg_iters) + ',' +
           std::to_string(t.thermal_adjoint_solves) + ',' +
           std::to_string(t.replace_moves) + ',' +
           std::to_string(t.guardband_nonconverged) + ',' +
           std::to_string(t.disk_hits) + ',' + std::to_string(t.disk_misses) + ',' +
           std::to_string(t.disk_writes);
    for (double s : t.phases.seconds) {
      out += ',';
      out += fmt(s);
    }
    for (std::uint64_t v : {t.route_iterations, t.route_overused_nodes, t.route_searches,
                            t.route_heap_pushes, t.route_heap_pops, t.route_relaxations}) {
      out += ',';
      out += std::to_string(v);
    }
    out += '\n';
  }
  return out;
}

core::FlowObserver observe_into(TaskMetrics& metrics) {
  core::FlowObserver obs;
  obs.on_phase = [&metrics](core::FlowPhase phase, units::Seconds s) {
    metrics.phases.add(phase, s.value());
  };
  obs.on_iteration = [&metrics](const core::FlowObserver::IterationInfo& info) {
    metrics.iterations = info.iteration;
  };
  return obs;
}

}  // namespace taf::runner
