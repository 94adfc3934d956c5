// perfbench — the repository benchmark. Four closed-loop, single-process
// workloads, each loading a different layer of the paper flow (README.md
// in this directory explains the choice of each):
//
//   suite_implement  core::implement on the 19 VTR designs, cold, 1 thread
//   guardband_sweep  runner::Sweep::run over designs x grades x ambients
//   congested_route  route::route on fixed placements at channel width 64
//   characterize     SPICE device characterization + liberty libraries
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. Untraced runs (--trace 0) report the end-to-end metrics; traced
// runs (--trace 1) also check the held-out seed, report the per-layer
// metrics and write a Chrome trace-event file. A failed aggregate
// correctness check exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coffe/device_model.hpp"
#include "coffe/stdcell.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "spice/linear.hpp"
#include "tech/technology.hpp"
#include "trace.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace taf;
using perfbench::SpanScope;
using perfbench::Tracer;

constexpr double kScale = 1.0 / 16.0;  // DESIGN.md section 6 suite scale
/// ImplementOptions::seed of the paper experiments.
constexpr unsigned kPaperSeed = 1;
/// Seed checked in every run besides --seed; never used to tune anything.
constexpr unsigned kHeldOutSeed = 7919;
/// Paper section III-A: Algorithm 1 converges in fewer than 10 iterations.
constexpr int kMaxGuardbandIterations = 10;
constexpr int kCongestedChannelWidth = 64;
const std::vector<std::string> kCongestedDesigns = {
    "bgm", "blob_merge", "LU8PEEng", "mkDelayWorker32B",
    "stereovision0", "stereovision1", "stereovision2"};
const std::vector<double> kGrades = {0.0, 25.0, 70.0, 100.0};
/// Fig. 7 average gain band (ROADMAP item 5), around the paper's 14 %.
constexpr double kFig7GainLo = 0.12;
constexpr double kFig7GainHi = 0.16;
/// Table II DSP row, 547 + 4.42 T ps: +81.6 % from 0 to 100 C. The
/// liberty flow must land within 10 points of it.
constexpr double kDspIncreaseLo = 0.716;
constexpr double kDspIncreaseHi = 0.916;
/// SPICE-characterized D25 delays at 25 C against Table II.
constexpr double kTable2DelayTol = 0.03;

// ---------------------------------------------------------------------------
// Metric names, in BENCHMARK.json order.

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},         {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"fmax_geomean_mhz", "MHz"}, {"gain_mean_pct", "%"},
};

const std::vector<MetricDef> kPerLayer = {
    {"route.s", "s"},
    {"route.iterations", "count"},
    {"route.s_per_iteration", "s"},
    {"route.overused_nodes", "count"},
    {"route.legal_frac", "ratio"},
    {"route.wire_utilization", "ratio"},
    {"place.s", "s"},
    {"place.hpwl", "tiles"},
    {"pack.s", "s"},
    {"pack.blocks", "count"},
    {"activity.s", "s"},
    {"timing.build_s", "s"},
    {"core.unattributed_s", "s"},
    {"timing.sta_s", "s"},
    {"timing.edges_reevaluated", "count"},
    {"power.s", "s"},
    {"thermal.s", "s"},
    {"thermal.cg_iters", "count"},
    {"core.guardband_iters", "count"},
    {"core.nonconverged", "count"},
    {"runner.cell_p50_ms", "ms"},
    {"runner.cell_p99_ms", "ms"},
    {"runner.pool_busy_frac", "ratio"},
    {"runner.impl_hit_frac", "ratio"},
    {"coffe.characterize_s", "s"},
    {"coffe.library_s", "s"},
    {"spice.newton_iters", "count"},
    {"spice.factorizations", "count"},
    {"spice.pattern_reuse_frac", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Per-layer metric holding a layer span's self time.
std::string layer_metric(const std::string& layer) {
  if (layer == "sta_build") return "timing.build_s";
  if (layer == "sta") return "timing.sta_s";
  if (layer == "coffe.characterize") return "coffe.characterize_s";
  if (layer == "coffe.library") return "coffe.library_s";
  return layer + ".s";
}

// ---------------------------------------------------------------------------
// Statistics and process helpers.

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int pool_threads() {
  return std::clamp(runner::ThreadPool::hardware_default(), 1, 4);
}

/// Seeded permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, unsigned seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  return order;
}

std::vector<netlist::BenchmarkSpec> suite_specs(const std::vector<std::string>& only = {}) {
  std::vector<netlist::BenchmarkSpec> specs;
  for (const netlist::BenchmarkSpec& s : netlist::vtr_suite()) {
    if (only.empty() || std::find(only.begin(), only.end(), s.name) != only.end()) {
      specs.push_back(netlist::scaled(s, kScale));
    }
  }
  return specs;
}

void log_samples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %s: %zu samples, median %.4f s (min %.4f, max %.4f)\n", what,
               v.size(), median(v), *std::min_element(v.begin(), v.end()),
               *std::max_element(v.begin(), v.end()));
}

/// Run `pass` (which returns the seconds it measured) until `seconds` of
/// measured time have accumulated; at least once.
std::vector<double> measure(const char* what, double seconds, const std::function<double()>& pass) {
  std::vector<double> walls;
  double total = 0.0;
  do {
    walls.push_back(pass());
    total += walls.back();
  } while (total < seconds);
  log_samples(what, walls);
  return walls;
}

/// Median wall time of `reps` repetitions of the set-up.
double timed_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const util::Stopwatch w;
    setup();
    t.push_back(w.seconds());
  }
  log_samples("set-up", t);
  return median(t);
}

std::string route_bytes(const route::RouteResult& r) {
  util::codec::Encoder enc;
  route::serialize(r, enc);
  return enc.take();
}

bool route_legal(const route::RouteResult& r) { return r.success && r.overused_nodes == 0; }

bool guardband_ok(const core::GuardbandResult& r) {
  return r.converged && r.iterations < kMaxGuardbandIterations &&
         r.fmax_mhz.value() >= r.baseline_fmax_mhz.value();
}

const tech::Technology& technology() {
  static const tech::Technology t = tech::ptm22();
  return t;
}

// ---------------------------------------------------------------------------
// Run outcome: operation counts, aggregate checks, metrics.

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< of the first timed pass; logged for cross-run comparison
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;
  Tracer trace;  ///< spans of the traced passes (--trace 1)

  /// One operation (design, cell, route call, grade or library).
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
    }
  }
  /// One aggregate correctness check.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// All passes of a run must produce the same digest as the first.
  void same_digest(std::uint64_t first, std::uint64_t got, const std::string& what) {
    check(first == got, "determinism: " + what + " digest differs between passes");
  }
};

/// Untimed quality evaluation of an implemented design: D25 fmax at the
/// 100 C worst-case corner and Algorithm 1 at 70 C ambient (Fig. 7 point).
struct DesignQor {
  double fmax100_mhz = 0.0;
  core::GuardbandResult gb70;
};

DesignQor evaluate(const core::Implementation& impl, const coffe::DeviceModel& d25) {
  DesignQor q;
  q.fmax100_mhz = impl.sta->analyze_uniform(d25, units::Celsius{100.0}).fmax_mhz.value();
  core::GuardbandOptions g;
  g.t_amb_c = units::Celsius{70.0};
  q.gb70 = core::guardband(impl, d25, g);
  return q;
}

/// Elmore-characterized D25 device (the grade the QoR metrics use).
coffe::DeviceModel d25_device(const arch::ArchParams& arch) {
  return coffe::Characterizer(technology(), arch).characterize(units::Celsius{25.0});
}

/// Route counters summed over the designs of one pass.
struct RouteTotals {
  double iterations = 0, overused = 0, legal = 0, designs = 0, wire_util = 0;

  void add(const route::RouteResult& r) {
    iterations += r.iterations;
    overused += r.overused_nodes;
    legal += route_legal(r) ? 1 : 0;
    designs += 1;
    wire_util += r.wire_utilization;
  }
  /// Call after report_attribution(): s_per_iteration divides route.s.
  void report(Outcome& out) const {
    out.metrics["route.iterations"] = iterations;
    out.metrics["route.overused_nodes"] = overused;
    out.metrics["route.legal_frac"] = designs > 0 ? legal / designs : 0.0;
    out.metrics["route.wire_utilization"] = designs > 0 ? wire_util / designs : 0.0;
    const double route_s = out.metrics["route.s"];
    out.metrics["route.s_per_iteration"] = iterations > 0 ? route_s / iterations : 0.0;
  }
};

/// Per-layer self times of a traced pass, the unattributed bucket, and the
/// tracing overhead against the untraced passes of the same run.
void report_attribution(const Tracer& tr, int pass_span, double untraced_wall_s,
                        Outcome& out) {
  const Tracer::Attribution a = tr.attribute(pass_span);
  for (const auto& [layer, s] : a.layer_s) out.metrics[layer_metric(layer)] += s;
  const double wall = tr.span(pass_span).dur_s;
  out.metrics["trace.wall_s"] = wall;
  out.metrics["trace.unattributed_s"] = a.op_self_s + a.pass_self_s;
  out.metrics["trace.overhead_s"] = wall - untraced_wall_s;
}

/// Index of the pass with the median wall time (the traced pass whose
/// breakdown a traced run reports).
std::size_t median_index(const std::vector<double>& walls) {
  std::vector<std::size_t> idx(walls.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return walls[a] < walls[b]; });
  return idx[(idx.size() - 1) / 2];
}

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

// ---------------------------------------------------------------------------
// suite_implement: the user's compile step, cold, one design after another.

struct ImplementPass {
  double wall_s = 0.0;
  int span = -1;
  std::vector<std::unique_ptr<core::Implementation>> impls;  // null if it threw
};

/// Implement every design with placement seed `seed`, in the order
/// `order_seed` shuffles them to; impls stay indexed like `specs`.
ImplementPass implement_designs(const std::vector<netlist::BenchmarkSpec>& specs,
                                const arch::ArchParams& arch, unsigned seed,
                                unsigned order_seed, Tracer* tr) {
  ImplementPass p;
  p.impls.resize(specs.size());
  int op_span = -1;
  core::FlowObserver obs;
  if (tr != nullptr) {
    obs.on_phase = [&](core::FlowPhase ph, units::Seconds s) {
      tr->layer_ended(core::flow_phase_name(ph), s.value(), op_span);
    };
  }
  core::ImplementOptions opt;
  opt.seed = seed;
  opt.observer = tr != nullptr ? &obs : nullptr;

  const util::Stopwatch wall;
  {
    const SpanScope pass(tr, "suite_implement", "pass", -1);
    p.span = pass.id();
    for (std::size_t i : shuffled(specs.size(), order_seed)) {
      const SpanScope op(tr, specs[i].name, "op", pass.id());
      op_span = op.id();
      try {
        p.impls[i] = core::implement(specs[i], arch, opt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: implement %s threw: %s\n", specs[i].name.c_str(), e.what());
      }
    }
  }
  p.wall_s = wall.seconds();
  return p;
}

/// Checks and QoR of one implemented suite; returns its digest.
struct SuiteEval {
  std::uint64_t digest = 0;
  std::vector<double> fmax100, gain70;
  RouteTotals routes;
  double hpwl = 0.0, blocks = 0.0;
};

SuiteEval evaluate_suite(const std::vector<netlist::BenchmarkSpec>& specs,
                         const ImplementPass& p, const coffe::DeviceModel& d25,
                         unsigned seed, Outcome& out) {
  SuiteEval e;
  util::Fnv1a h;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string what = specs[i].name + " (seed " + std::to_string(seed) + ")";
    const core::Implementation* impl = p.impls[i].get();
    if (impl == nullptr) {
      out.op(false, what + ": implement threw");
      continue;
    }
    const DesignQor q = evaluate(*impl, d25);
    out.op(route_legal(impl->routes) && guardband_ok(q.gb70),
           what + ": illegal route or Algorithm 1 failure");
    e.fmax100.push_back(q.fmax100_mhz);
    e.gain70.push_back(q.gb70.gain());
    e.routes.add(impl->routes);
    e.hpwl += place::wirelength_cost(impl->packed, impl->placement);
    e.blocks += static_cast<double>(impl->packed.blocks.size());
    h.add(std::string_view(specs[i].name));
    h.add(q.fmax100_mhz);
    h.add(impl->routes.iterations);
    h.add(std::string_view(route_bytes(impl->routes)));
  }
  e.digest = h.state;
  return e;
}

void run_suite_implement(const Args& args, Outcome& out) {
  std::vector<netlist::BenchmarkSpec> specs;
  arch::ArchParams arch;
  coffe::DeviceModel d25;
  out.metrics["setup_s"] = timed_setup(9, [&] {
    arch = arch::scaled_arch();
    specs = suite_specs();
    d25 = d25_device(arch);
  });

  // The timed placements use the paper's seed: over placement seeds 0-5
  // one pass ranges 10.4-13.9 s, more than a bound can absorb. --seed
  // orders the designs; the held-out placement seed is checked untimed.
  std::vector<SuiteEval> evals;
  const std::vector<double> walls = measure("timed passes", args.seconds, [&] {
    const ImplementPass p = implement_designs(specs, arch, kPaperSeed, args.seed, nullptr);
    evals.push_back(evaluate_suite(specs, p, d25, kPaperSeed, out));
    return p.wall_s;
  });
  out.digest = evals[0].digest;
  for (const SuiteEval& e : evals) out.same_digest(out.digest, e.digest, "suite_implement");

  out.metrics["wall_s"] = median(walls);
  out.metrics["fmax_geomean_mhz"] = util::geomean_of(evals[0].fmax100);
  out.metrics["gain_mean_pct"] = 100.0 * util::mean_of(evals[0].gain70);

  // Traced runs add the held-out seed checks and the attributed passes.
  if (!args.trace) return;
  {
    const ImplementPass p = implement_designs(specs, arch, kHeldOutSeed, kHeldOutSeed, nullptr);
    evaluate_suite(specs, p, d25, kHeldOutSeed, out);
  }

  Tracer& tr = out.trace;
  std::vector<int> spans;
  std::vector<SuiteEval> traced_evals;
  const std::vector<double> traced = measure("traced passes", args.seconds, [&] {
    const ImplementPass p = implement_designs(specs, arch, kPaperSeed, args.seed, &tr);
    traced_evals.push_back(evaluate_suite(specs, p, d25, kPaperSeed, out));
    out.same_digest(evals[0].digest, traced_evals.back().digest, "traced suite_implement");
    spans.push_back(p.span);
    return p.wall_s;
  });
  const std::size_t m = median_index(traced);
  report_attribution(tr, spans[m], median(walls), out);
  out.metrics["core.unattributed_s"] = tr.attribute(spans[m]).op_self_s;
  traced_evals[m].routes.report(out);
  out.metrics["place.hpwl"] = traced_evals[m].hpwl;
  out.metrics["pack.blocks"] = traced_evals[m].blocks;
}

// ---------------------------------------------------------------------------
// guardband_sweep: Algorithm 1 over designs x grades x ambients on a pool.

struct SweepPass {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<runner::SweepCellResult> cells;  // canonical (grid) order
  double impl_hit_frac = 0.0;
};

void run_guardband_sweep(const Args& args, Outcome& out) {
  const arch::ArchParams arch = arch::scaled_arch();
  const std::vector<netlist::BenchmarkSpec> specs = netlist::vtr_suite();
  std::vector<double> ambients;
  for (int t = 0; t <= 90; t += 5) ambients.push_back(t);
  const int threads = pool_threads();
  runner::ThreadPool pool(threads);

  // Set-up: implement every design and characterize every grade into a
  // fresh cache, so the timed sweeps only hit it. Sweep::run has no seed
  // field (it implements with ImplementOptions{}, seed 1, the paper's), so
  // --seed orders the cells instead: a different schedule over the pool.
  std::unique_ptr<runner::FlowCache> cache;
  std::vector<runner::SweepPoint> grid;
  std::vector<char> legal(specs.size());  // not vector<bool>: written concurrently
  out.metrics["setup_s"] = timed_setup(2, [&] {
    cache.reset();
    cache = std::make_unique<runner::FlowCache>();
    pool.parallel_for(specs.size() + kGrades.size(), [&](std::size_t i) {
      if (i < specs.size()) {
        legal[i] = route_legal(cache->implementation(specs[i], arch, kScale).routes);
      } else {
        cache->device(technology(), arch, kGrades[i - specs.size()]);
      }
    });
    grid = runner::Sweep::grid(specs, kScale, arch, kGrades, ambients);
  });
  const runner::Sweep sweep(*cache, pool, technology());
  const std::size_t per_spec = kGrades.size() * ambients.size();

  const auto run_pass = [&](unsigned order_seed, Tracer* tr) {
    const std::vector<std::size_t> order = shuffled(grid.size(), order_seed);
    std::vector<runner::SweepPoint> points;
    points.reserve(grid.size());
    for (std::size_t i : order) points.push_back(grid[i]);

    SweepPass p;
    const runner::FlowCache::Stats before = cache->stats();
    const util::Stopwatch wall;
    std::vector<runner::SweepCellResult> results;
    {
      const SpanScope span(tr, "guardband_sweep", "pass", -1);
      results = sweep.run(points);
    }
    p.wall_s = wall.seconds();
    const runner::FlowCache::Stats after = cache->stats();
    const double hits = static_cast<double>(after.impl_hits - before.impl_hits);
    const double misses = static_cast<double>(after.impl_misses - before.impl_misses);
    p.impl_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;

    p.cells.resize(grid.size());
    for (std::size_t k = 0; k < order.size(); ++k) p.cells[order[k]] = std::move(results[k]);
    util::Fnv1a h;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const core::GuardbandResult& r = p.cells[i].guardband;
      out.op(legal[i / per_spec] && guardband_ok(r),
             p.cells[i].metrics.name + ": illegal route or Algorithm 1 failure");
      h.add(r.fmax_mhz.value());
      h.add(r.baseline_fmax_mhz.value());
      h.add(r.iterations);
    }
    p.digest = h.state;
    return p;
  };

  std::vector<double> walls;
  std::vector<double> fmax, gains, fig7;
  std::uint64_t& digest = out.digest;
  measure("timed passes", args.seconds, [&] {
    SweepPass p = run_pass(args.seed, nullptr);
    if (walls.empty()) {
      digest = p.digest;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const core::GuardbandResult& r = p.cells[i].guardband;
        fmax.push_back(r.fmax_mhz.value());
        gains.push_back(r.gain());
        if (grid[i].t_opt_c == 25.0 && grid[i].guardband.t_amb_c.value() == 70.0) {
          fig7.push_back(r.gain());
        }
      }
    }
    out.same_digest(digest, p.digest, "guardband_sweep");
    walls.push_back(p.wall_s);
    return p.wall_s;
  });

  const double fig7_gain = util::mean_of(fig7);
  std::fprintf(stderr, "perfbench: Fig. 7 average gain (D25, 70 C) %.2f %%\n", 100.0 * fig7_gain);
  out.check(fig7_gain >= kFig7GainLo && fig7_gain <= kFig7GainHi,
            "Fig. 7 average gain outside [12, 16] %");
  out.metrics["wall_s"] = median(walls);
  out.metrics["fmax_geomean_mhz"] = util::geomean_of(fmax);
  out.metrics["gain_mean_pct"] = 100.0 * util::mean_of(gains);

  // Traced runs add the held-out seed checks and the attributed passes.
  if (!args.trace) return;
  // The held-out cell order must not change a single result.
  out.same_digest(digest, run_pass(kHeldOutSeed, nullptr).digest, "held-out order guardband_sweep");
  // Sweep::run installs its own observer, so its layers come from the
  // per-cell TaskMetrics: executor-seconds divided by the pool size give
  // each layer's share of the pass wall; the rest (pool idle, per-cell
  // bookkeeping) is the unattributed bucket.
  const auto layer_metrics = [&](const SweepPass& p) {
    std::map<std::string, double> m;
    runner::PhaseTimes phases;
    std::vector<double> cell_ms;
    double busy = 0, edges = 0, cg = 0, iters = 0, nonconv = 0;
    for (const runner::SweepCellResult& c : p.cells) {
      for (std::size_t k = 0; k < phases.seconds.size(); ++k) {
        phases.seconds[k] += c.metrics.phases.seconds[k];
      }
      cell_ms.push_back(1e3 * c.metrics.wall_s);
      busy += c.metrics.wall_s;
      edges += static_cast<double>(c.metrics.sta_edges_reevaluated);
      cg += static_cast<double>(c.metrics.thermal_cg_iters);
      iters += c.guardband.iterations;
      nonconv += static_cast<double>(c.metrics.guardband_nonconverged);
    }
    double attributed = 0.0;
    for (std::size_t k = 0; k < phases.seconds.size(); ++k) {
      const double s = phases.seconds[k] / threads;
      if (s <= 0.0) continue;
      m[layer_metric(core::flow_phase_name(static_cast<core::FlowPhase>(k)))] = s;
      attributed += s;
    }
    m["trace.wall_s"] = p.wall_s;
    m["trace.unattributed_s"] = p.wall_s - attributed;
    m["trace.overhead_s"] = p.wall_s - median(walls);
    m["timing.edges_reevaluated"] = edges;
    m["thermal.cg_iters"] = cg;
    m["core.guardband_iters"] = iters;
    m["core.nonconverged"] = nonconv;
    m["runner.cell_p50_ms"] = percentile(cell_ms, 0.50);
    m["runner.cell_p99_ms"] = percentile(cell_ms, 0.99);
    m["runner.pool_busy_frac"] = busy / (p.wall_s * threads);
    m["runner.impl_hit_frac"] = p.impl_hit_frac;
    return m;
  };
  Tracer& tr = out.trace;
  std::vector<std::map<std::string, double>> per_pass;
  const std::vector<double> traced = measure("traced passes", args.seconds, [&] {
    const SweepPass p = run_pass(args.seed, &tr);
    out.same_digest(digest, p.digest, "traced guardband_sweep");
    per_pass.push_back(layer_metrics(p));
    return p.wall_s;
  });
  for (const auto& [name, value] : per_pass[median_index(traced)]) out.metrics[name] = value;
}

// ---------------------------------------------------------------------------
// congested_route: PathFinder re-routing fixed placements at W = 64.

struct RoutePass {
  double wall_s = 0.0;
  int span = -1;
  std::vector<route::RouteResult> routes;
};

RoutePass route_designs(const std::vector<netlist::BenchmarkSpec>& specs,
                        const std::vector<std::unique_ptr<core::Implementation>>& impls,
                        const route::RouteOptions& ropt, unsigned order_seed, Tracer* tr) {
  RoutePass p;
  p.routes.resize(impls.size());
  const util::Stopwatch wall;
  {
    const SpanScope pass(tr, "congested_route", "pass", -1);
    p.span = pass.id();
    for (std::size_t i : shuffled(impls.size(), order_seed)) {
      const SpanScope op(tr, specs[i].name, "op", pass.id());
      const SpanScope layer(tr, "route", "layer", op.id());
      const core::Implementation& impl = *impls[i];
      p.routes[i] = route::route(impl.rr, impl.packed, impl.placement, ropt);
    }
  }
  p.wall_s = wall.seconds();
  return p;
}

void run_congested_route(const Args& args, Outcome& out) {
  arch::ArchParams arch = arch::scaled_arch();
  arch.channel_tracks = kCongestedChannelWidth;
  const std::vector<netlist::BenchmarkSpec> specs = suite_specs(kCongestedDesigns);
  const route::RouteOptions ropt = core::ImplementOptions{}.route;

  // Set-up: place (and, through implement, first route) every design.
  // W = 64 sits at the routability edge, so placements vary too much with
  // the seed to time (stereovision2 is unroutable at seed 0): the timed
  // placements are the paper's seed 1, --seed orders the route calls, and
  // the held-out seed's placements are checked for legality. One thread,
  // so the peak memory does not depend on how parallel builds interleave.
  std::vector<std::unique_ptr<core::Implementation>> impls;
  coffe::DeviceModel d25;
  out.metrics["setup_s"] = timed_setup(2, [&] {
    impls.clear();
    impls = implement_designs(specs, arch, kPaperSeed, kPaperSeed, nullptr).impls;
    d25 = d25_device(arch);
  });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (impls[i] == nullptr) throw std::runtime_error("set-up could not implement " + specs[i].name);
  }

  std::vector<double> fmax, gains;
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignQor q = evaluate(*impls[i], d25);
    out.op(route_legal(impls[i]->routes) && guardband_ok(q.gb70),
           specs[i].name + ": illegal route at W=64 or Algorithm 1 failure");
    fmax.push_back(q.fmax100_mhz);
    gains.push_back(q.gb70.gain());
    reference.push_back(route_bytes(impls[i]->routes));
  }

  const auto check_pass = [&](const RoutePass& p, RouteTotals* totals) {
    util::Fnv1a h;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const route::RouteResult& r = p.routes[i];
      out.op(route_legal(r), specs[i].name + ": re-route illegal at W=64");
      const std::string bytes = route_bytes(r);
      out.check(bytes == reference[i],
                "re-route of " + specs[i].name + " differs from core::implement's routes");
      h.add(std::string_view(bytes));
      h.add(r.iterations);
      if (totals != nullptr) totals->add(r);
    }
    return h.state;
  };

  std::vector<double> walls;
  std::uint64_t& digest = out.digest;
  measure("timed passes", args.seconds, [&] {
    const RoutePass p = route_designs(specs, impls, ropt, args.seed, nullptr);
    const std::uint64_t d = check_pass(p, nullptr);
    if (walls.empty()) digest = d;
    out.same_digest(digest, d, "congested_route");
    walls.push_back(p.wall_s);
    return p.wall_s;
  });

  out.metrics["wall_s"] = median(walls);
  out.metrics["fmax_geomean_mhz"] = util::geomean_of(fmax);
  out.metrics["gain_mean_pct"] = 100.0 * util::mean_of(gains);

  // Traced runs add the held-out seed checks and the attributed passes.
  if (!args.trace) return;
  out.same_digest(digest, check_pass(route_designs(specs, impls, ropt, kHeldOutSeed, nullptr), nullptr),
                  "held-out order congested_route");
  {
    // Held-out placements: every design must still route legally.
    const ImplementPass held = implement_designs(specs, arch, kHeldOutSeed, kHeldOutSeed, nullptr);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const core::Implementation* impl = held.impls[i].get();
      out.op(impl != nullptr && route_legal(impl->routes) && guardband_ok(evaluate(*impl, d25).gb70),
             specs[i].name + " (held-out seed): illegal route at W=64 or Algorithm 1 failure");
    }
  }
  Tracer& tr = out.trace;
  std::vector<int> spans;
  std::vector<RouteTotals> totals;
  const std::vector<double> traced = measure("traced passes", args.seconds, [&] {
    const RoutePass p = route_designs(specs, impls, ropt, args.seed, &tr);
    totals.emplace_back();
    out.same_digest(digest, check_pass(p, &totals.back()), "traced congested_route");
    spans.push_back(p.span);
    return p.wall_s;
  });
  const std::size_t m = median_index(traced);
  report_attribution(tr, spans[m], median(walls), out);
  totals[m].report(out);
}

// ---------------------------------------------------------------------------
// characterize: SPICE-evaluated grades and the liberty DSP flow (Fig. 5b).

struct CharPass {
  double wall_s = 0.0;
  int span = -1;
  std::vector<coffe::DeviceModel> devices;  // kGrades order
  std::vector<double> mac_delay_ps;         // library temperature order
  spice::SolverCounters spice;
};

void run_characterize(const Args& args, Outcome& out) {
  const arch::ArchParams arch = arch::scaled_arch();
  std::vector<double> temps;
  for (int t = 0; t <= 100; t += 10) temps.push_back(t);

  std::unique_ptr<coffe::Characterizer> ch;
  std::vector<coffe::stdcell::PathGate> mac;
  out.metrics["setup_s"] = timed_setup(5, [&] {
    coffe::CharacterizeOptions copt;
    copt.use_spice = true;
    ch = std::make_unique<coffe::Characterizer>(technology(), arch, copt);
    mac = coffe::stdcell::synthesize_mac(technology(), units::Celsius{25.0});
  });

  // Nothing here depends on a placement seed; --seed orders the grades
  // and libraries, and every order must give identical results.
  const auto run_pass = [&](unsigned order_seed, Tracer* tr) {
    CharPass p;
    p.devices.resize(kGrades.size());
    p.mac_delay_ps.resize(temps.size());
    const spice::SolverCounters before = spice::thread_counters();
    const util::Stopwatch wall;
    {
      const SpanScope pass(tr, "characterize", "pass", -1);
      p.span = pass.id();
      for (std::size_t g : shuffled(kGrades.size(), order_seed)) {
        const SpanScope op(tr, "D" + std::to_string(static_cast<int>(kGrades[g])), "op", pass.id());
        const SpanScope layer(tr, "coffe.characterize", "layer", op.id());
        p.devices[g] = ch->characterize(units::Celsius{kGrades[g]});
      }
      for (std::size_t t : shuffled(temps.size(), order_seed + 1)) {
        const SpanScope op(tr, "lib" + std::to_string(static_cast<int>(temps[t])), "op", pass.id());
        std::optional<coffe::stdcell::Liberty> lib;
        {
          const SpanScope layer(tr, "coffe.library", "layer", op.id());
          lib.emplace(coffe::stdcell::characterize_library(technology(), units::Celsius{temps[t]}));
        }
        p.mac_delay_ps[t] = coffe::stdcell::sta_path_delay_ps(mac, *lib);
      }
    }
    p.wall_s = wall.seconds();
    p.spice = spice::thread_counters() - before;
    return p;
  };

  const auto check_pass = [&](const CharPass& p) {
    util::Fnv1a h;
    for (const coffe::DeviceModel& d : p.devices) {
      bool ok = true;
      for (coffe::ResourceKind k : coffe::all_resource_kinds()) {
        const util::LinearFit& f = d.at(k).delay_ps;
        ok = ok && std::isfinite(f.intercept) && std::isfinite(f.slope) && f.slope > 0.0;
        h.add(f.intercept);
        h.add(f.slope);
      }
      out.op(ok, d.name + ": non-finite or non-increasing delay fit");
    }
    for (std::size_t t = 0; t < temps.size(); ++t) {
      const double d = p.mac_delay_ps[t];
      out.op(std::isfinite(d) && d > 0.0, "liberty " + std::to_string(temps[t]) + " C: bad MAC delay");
      h.add(d);
    }
    return h.state;
  };

  std::vector<double> walls;
  std::uint64_t& digest = out.digest;
  CharPass first;
  measure("timed passes", args.seconds, [&] {
    CharPass p = run_pass(args.seed, nullptr);
    const std::uint64_t d = check_pass(p);
    walls.push_back(p.wall_s);
    if (walls.size() == 1) {
      digest = d;
      first = std::move(p);
    }
    out.same_digest(digest, d, "characterize");
    return walls.back();
  });

  // Aggregate checks against the paper's Table II.
  const coffe::DeviceModel paper = coffe::Characterizer::paper_table2_reference();
  const auto d25_at = std::find(kGrades.begin(), kGrades.end(), 25.0) - kGrades.begin();
  const coffe::DeviceModel& d25 = first.devices[static_cast<std::size_t>(d25_at)];
  for (coffe::ResourceKind k : coffe::all_resource_kinds()) {
    const double ratio = d25.delay(k, units::Celsius{25.0}).value() /
                         paper.delay(k, units::Celsius{25.0}).value();
    out.check(std::fabs(ratio - 1.0) <= kTable2DelayTol,
              std::string("SPICE D25 delay of ") + coffe::resource_name(k) +
                  " at 25 C off Table II by more than 3 %");
  }
  const double dsp_increase = first.mac_delay_ps.back() / first.mac_delay_ps.front() - 1.0;
  std::fprintf(stderr, "perfbench: liberty DSP 0->100 C increase %.1f %% (Table II 81.6 %%)\n",
               100.0 * dsp_increase);
  out.check(dsp_increase >= kDspIncreaseLo && dsp_increase <= kDspIncreaseHi,
            "liberty DSP 0->100 C increase outside [71.6, 91.6] %");

  std::vector<double> fmax, headroom;
  for (const coffe::DeviceModel& d : first.devices) {
    const double cp100 = d.rep_cp_delay(units::Celsius{100.0}).value();
    fmax.push_back(1e6 / cp100);
    headroom.push_back(cp100 / d.rep_cp_delay(units::Celsius{70.0}).value() - 1.0);
  }
  out.metrics["wall_s"] = median(walls);
  out.metrics["fmax_geomean_mhz"] = util::geomean_of(fmax);
  out.metrics["gain_mean_pct"] = 100.0 * util::mean_of(headroom);

  // Traced runs add the held-out seed checks and the attributed passes.
  if (!args.trace) return;
  out.same_digest(digest, check_pass(run_pass(kHeldOutSeed, nullptr)),
                  "held-out order characterize");
  Tracer& tr = out.trace;
  std::vector<CharPass> passes;
  const std::vector<double> traced = measure("traced passes", args.seconds, [&] {
    passes.push_back(run_pass(args.seed, &tr));
    out.same_digest(digest, check_pass(passes.back()), "traced characterize");
    return passes.back().wall_s;
  });
  const CharPass& p = passes[median_index(traced)];
  report_attribution(tr, p.span, median(walls), out);
  out.metrics["spice.newton_iters"] = static_cast<double>(p.spice.newton_iterations);
  out.metrics["spice.factorizations"] = static_cast<double>(p.spice.factorizations);
  out.metrics["spice.pattern_reuse_frac"] =
      p.spice.factorizations > 0
          ? static_cast<double>(p.spice.pattern_reuses) / static_cast<double>(p.spice.factorizations)
          : 0.0;
}

// ---------------------------------------------------------------------------

const std::map<std::string, void (*)(const Args&, Outcome&)> kWorkloads = {
    {"suite_implement", run_suite_implement},
    {"guardband_sweep", run_guardband_sweep},
    {"congested_route", run_congested_route},
    {"characterize", run_characterize},
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = static_cast<unsigned>(std::stoul(val));
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-file") a.trace_file = val;
    else return false;
  }
  return argc % 2 == 1 && kWorkloads.count(a.workload) == 1 && a.seconds > 0.0;
}

void print_result(const Args& args, const Outcome& out) {
  const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& m : defs) {
    const auto it = out.metrics.find(m.name);
    std::printf("%-26s %16.6f %s\n", m.name, it != out.metrics.end() ? it->second : 0.0, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.metrics.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, it != out.metrics.end() ? it->second : 0.0, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <suite_implement|guardband_sweep|"
                   "congested_route|characterize> --seed <n> --seconds <s> --trace <0|1> "
                   "[--trace-file <path>]\n");
      return 2;
    }
    Outcome out;
    kWorkloads.at(args.workload)(args, out);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    if (args.trace && !args.trace_file.empty() && !out.trace.write_chrome(args.trace_file)) {
      out.check(false, "could not write " + args.trace_file);
    }
    for (const std::string& f : out.check_failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    std::fprintf(stderr, "perfbench: %s seed %u: %llu operations, %llu failed, digest %016llx\n",
                 args.workload.c_str(), args.seed,
                 static_cast<unsigned long long>(out.attempted),
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.digest));
    print_result(args, out);
    return out.check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
