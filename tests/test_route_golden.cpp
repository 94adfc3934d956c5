// Golden regression for PathFinder: the serialized RouteResult of every
// VTR suite design (scale 1/16, W = 96, placement seed 1) and of the seven
// congested designs at W = 64 is snapshotted as an FNV-1a digest plus the
// PathFinder iteration count in tests/golden/route_digests.json. Router
// refactors must reproduce every route byte for byte; a change that moves
// routes on purpose regenerates the snapshot and says so. Pack and place
// run upstream of the router here, so a change there moves the digests
// too.
//
// Regenerate the snapshot after an intentional router change with:
//   TAF_UPDATE_GOLDEN=1 ./test_route_golden

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "util/codec.hpp"
#include "util/env.hpp"
#include "util/hash.hpp"

#ifndef TAF_GOLDEN_DIR
#error "TAF_GOLDEN_DIR must point at the tests/golden source directory"
#endif

namespace {

using namespace taf;

constexpr double kScale = 1.0 / 16.0;
constexpr int kCongestedChannelWidth = 64;
const std::vector<std::string> kCongestedDesigns = {
    "bgm", "blob_merge", "LU8PEEng", "mkDelayWorker32B",
    "stereovision0", "stereovision1", "stereovision2"};

std::string golden_path() { return std::string(TAF_GOLDEN_DIR) + "/route_digests.json"; }

/// One snapshot entry: "<group>/<design>" with group w96 or w64.
struct Case {
  std::string group;
  std::string design;
  int channel_tracks = 0;
  std::string key() const { return group + "/" + design; }
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const int w = arch::scaled_arch().channel_tracks;
  for (const netlist::BenchmarkSpec& s : netlist::vtr_suite())
    cases.push_back({"w" + std::to_string(w), s.name, w});
  for (const std::string& name : kCongestedDesigns)
    cases.push_back(
        {"w" + std::to_string(kCongestedChannelWidth), name, kCongestedChannelWidth});
  return cases;
}

struct Snapshot {
  int iterations = 0;
  std::string digest;  ///< 16 lowercase hex digits
};

Snapshot route_snapshot(const Case& c) {
  netlist::BenchmarkSpec spec;
  for (const netlist::BenchmarkSpec& s : netlist::vtr_suite())
    if (s.name == c.design) spec = netlist::scaled(s, kScale);
  arch::ArchParams arch = arch::scaled_arch();
  arch.channel_tracks = c.channel_tracks;
  const auto impl = core::implement(spec, arch);

  util::codec::Encoder enc;
  route::serialize(impl->routes, enc);
  const std::string bytes = enc.take();
  util::Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  h.add(impl->routes.iterations);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h.state);
  return {impl->routes.iterations, hex};
}

/// Minimal reader for the snapshot's fixed shape:
///   "<key>": {"iterations": <int>, "digest": "<hex>"}
std::map<std::string, Snapshot> read_golden() {
  std::map<std::string, Snapshot> out;
  std::ifstream in(golden_path());
  if (!in.good()) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string it_tag = "\"iterations\":";
  const std::string dg_tag = "\"digest\": \"";
  std::size_t pos = 0;
  while ((pos = text.find("\"w", pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    const std::size_t it = text.find(it_tag, key_end);
    const std::size_t dg = text.find(dg_tag, key_end);
    if (key_end == std::string::npos || it == std::string::npos || dg == std::string::npos)
      break;
    Snapshot s;
    s.iterations = std::stoi(text.substr(it + it_tag.size()));
    s.digest = text.substr(dg + dg_tag.size(), 16);
    out[text.substr(pos + 1, key_end - pos - 1)] = s;
    pos = dg + dg_tag.size() + 16;
  }
  return out;
}

/// Snapshots computed in update mode, written once every case has run.
std::map<std::string, Snapshot>& regenerated() {
  static std::map<std::string, Snapshot> m;
  return m;
}

class GoldenWriter : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!util::env_set("TAF_UPDATE_GOLDEN")) return;
    const std::vector<Case> cases = all_cases();
    if (regenerated().size() != cases.size()) {
      std::fprintf(stderr,
                   "route golden not written: %zu of %zu cases ran (drop the filter)\n",
                   regenerated().size(), cases.size());
      return;
    }
    std::ofstream out(golden_path());
    out << "{\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Snapshot& s = regenerated()[cases[i].key()];
      out << "  \"" << cases[i].key() << "\": {\"iterations\": " << s.iterations
          << ", \"digest\": \"" << s.digest << "\"}" << (i + 1 < cases.size() ? "," : "")
          << "\n";
    }
    out << "}\n";
    std::fprintf(stderr, "route golden regenerated at %s\n", golden_path().c_str());
  }
};

[[maybe_unused]] const auto* const kWriter =
    ::testing::AddGlobalTestEnvironment(new GoldenWriter);

class RouteGolden : public ::testing::TestWithParam<Case> {};

TEST_P(RouteGolden, SerializedRoutesMatchSnapshot) {
  const Case& c = GetParam();
  const Snapshot got = route_snapshot(c);
  if (util::env_set("TAF_UPDATE_GOLDEN")) {
    regenerated()[c.key()] = got;
    GTEST_SKIP() << "collected " << c.key() << " for regeneration";
  }
  const std::map<std::string, Snapshot> golden = read_golden();
  const auto it = golden.find(c.key());
  ASSERT_NE(it, golden.end()) << golden_path() << " lacks " << c.key()
                              << " (regenerate with TAF_UPDATE_GOLDEN=1)";
  EXPECT_EQ(got.iterations, it->second.iterations) << c.key() << " PathFinder iterations";
  EXPECT_EQ(got.digest, it->second.digest) << c.key() << " serialized routes differ";
}

INSTANTIATE_TEST_SUITE_P(Suite, RouteGolden, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& p) {
                           return p.param.group + "_" + p.param.design;
                         });

TEST(RouteGoldenFile, CoversEveryCase) {
  if (util::env_set("TAF_UPDATE_GOLDEN")) GTEST_SKIP() << "regenerating";
  const std::map<std::string, Snapshot> golden = read_golden();
  EXPECT_EQ(golden.size(), all_cases().size())
      << "stale or missing entries in " << golden_path();
}

}  // namespace
