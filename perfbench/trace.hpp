#pragma once
// In-memory span recorder for the traced benchmark runs.
//
// Spans form a tree: pass -> operation -> layer. Layer spans are leaves,
// recorded either around a direct call into a layer or from a
// core::FlowObserver::on_phase callback (which reports a duration when the
// phase ends, so the span is back-dated by that duration). Nothing is
// written until the run ends; write_chrome() emits Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto).

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string cat;  ///< "pass" | "op" | "layer"
    double start_s = 0.0;
    double dur_s = 0.0;
    int parent = -1;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Open a span now; close it with end().
  int begin(std::string name, std::string cat, int parent) {
    spans_.push_back({std::move(name), std::move(cat), now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].dur_s = now() - spans_[static_cast<std::size_t>(id)].start_s; }

  /// A layer span that just ended after `dur_s` seconds.
  void layer_ended(std::string name, double dur_s, int parent) {
    const double t = now();
    spans_.push_back({std::move(name), "layer", t - dur_s, dur_s, parent});
  }

  /// Self time of every layer summed over the subtree of `pass`, plus
  /// the time of that subtree no layer span covers ("unattributed").
  /// The values add up to the pass span's duration.
  struct Attribution {
    std::map<std::string, double> layer_s;
    double op_self_s = 0.0;    ///< inside operations, outside their layers
    double pass_self_s = 0.0;  ///< inside the pass, outside its operations
  };
  Attribution attribute(int pass) const {
    Attribution a;
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.dur_s;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!descends_from(static_cast<int>(i), pass)) continue;
      const double self = s.dur_s - child_s[i];
      if (s.cat == "layer") a.layer_s[s.name] += self;
      else if (s.cat == "op") a.op_self_s += self;
      else a.pass_self_s += self;
    }
    return a;
  }

  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", escaped(s.name).c_str(), s.cat.c_str(),
                   s.start_s * 1e6, s.dur_s * 1e6, i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool descends_from(int id, int root) const {
    for (int p = id; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (p == root) return true;
    }
    return false;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span that is a no-op without a tracer (the untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, std::string cat, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), std::move(cat), parent) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
