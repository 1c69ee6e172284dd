#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "service/json.hpp"

namespace jamelect::obs {
namespace {

TEST(Manifest, JsonCarriesIdentityBuildAndConfig) {
  RunManifest m;
  m.name = "unit \"quoted\"";
  m.seed = 424242;
  m.config["trials"] = "100";
  m.config["note"] = "line1\nline2";
  m.include_metrics = false;
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"name\": \"unit \\\"quoted\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"seed\": 424242"), std::string::npos);
  EXPECT_NE(json.find("\"created_unix_ms\": "), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": "), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": "), std::string::npos);
  EXPECT_NE(json.find("\"trials\": \"100\""), std::string::npos);
  EXPECT_NE(json.find("\\nline2"), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find(kObsCompiledIn ? "\"obs_compiled_in\": true"
                                     : "\"obs_compiled_in\": false"),
            std::string::npos);
}

TEST(Manifest, MetricsRollupIncludesGlobalCounters) {
  auto& reg = MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.add(reg.counter("manifest.test.counter"), 5);
  RunManifest m;
  m.name = "rollup";
  const std::string json = m.to_json();
  reg.set_enabled(was_enabled);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"manifest.test.counter\": "), std::string::npos);
}

// Drops the created_unix_ms line, the one field two back-to-back
// to_json() calls may disagree on.
std::string without_timestamp(std::string json) {
  const auto at = json.find("  \"created_unix_ms\"");
  return json.erase(at, json.find('\n', at) + 1 - at);
}

TEST(Manifest, ProfileWrittenOnlyWhileTheProfilerIsOn) {
  auto& prof = PhaseProfiler::global();
  const bool was_enabled = prof.enabled();
  RunManifest m;
  m.name = "profile";
  m.include_metrics = false;
  prof.set_enabled(false);
  const std::string off = without_timestamp(m.to_json());
  prof.set_enabled(true);
  prof.record(Phase::kMerge, 1234, 2);
  prof.count(ProfCounter::kChunks, 3);
  const ProfSnapshot snap = prof.snapshot();
  const std::string on = without_timestamp(m.to_json());
  prof.set_enabled(was_enabled);

  const auto off_doc = service::Json::parse(off);
  ASSERT_TRUE(off_doc.has_value()) << off;
  EXPECT_EQ(off_doc->find("profile"), nullptr);
  if constexpr (!kObsCompiledIn) {
    EXPECT_EQ(on, off);
    return;
  }
  const auto on_doc = service::Json::parse(on);
  ASSERT_TRUE(on_doc.has_value()) << on;
  const service::Json* profile = on_doc->find("profile");
  ASSERT_NE(profile, nullptr) << on;
  // The profile is appended; everything before it is the disabled JSON.
  const auto at = on.find(",\n  \"profile\": {");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(on.substr(0, at) + "\n}\n", off);

  const service::Json* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const service::Json* phase = phases->find(phase_name(static_cast<Phase>(i)));
    ASSERT_NE(phase, nullptr) << phase_name(static_cast<Phase>(i));
    EXPECT_EQ(phase->find("ns")->as_int(-1), snap.ns[i]);
    EXPECT_EQ(phase->find("calls")->as_int(-1), snap.calls[i]);
  }
  EXPECT_GE(snap.ns[static_cast<std::size_t>(Phase::kMerge)], 1234);
  const service::Json* counters = profile->find("counters");
  ASSERT_NE(counters, nullptr);
  for (std::size_t i = 0; i < kProfCounterCount; ++i) {
    const auto counter = static_cast<ProfCounter>(i);
    ASSERT_NE(counters->find(prof_counter_name(counter)), nullptr);
    EXPECT_EQ(counters->find(prof_counter_name(counter))->as_int(-1),
              snap.counters[i]);
  }
  EXPECT_GE(snap.counters[static_cast<std::size_t>(ProfCounter::kChunks)], 3);
}

TEST(Manifest, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "jamelect_manifest_test.json";
  RunManifest m;
  m.name = "file-test";
  m.seed = 7;
  m.include_metrics = false;
  ASSERT_TRUE(m.write_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"name\": \"file-test\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Manifest, PathResolutionHonoursEnvironment) {
  // Note: setenv/getenv here runs single-threaded (test main thread).
  unsetenv("JAMELECT_MANIFEST");
  unsetenv("JAMELECT_MANIFEST_DIR");
  EXPECT_EQ(manifest_path_for("run"), "./run.manifest.json");
  setenv("JAMELECT_MANIFEST_DIR", "/tmp/results", 1);
  EXPECT_EQ(manifest_path_for("run"), "/tmp/results/run.manifest.json");
  setenv("JAMELECT_MANIFEST", "0", 1);
  EXPECT_EQ(manifest_path_for("run"), "");
  setenv("JAMELECT_MANIFEST", "off", 1);
  EXPECT_EQ(manifest_path_for("run"), "");
  unsetenv("JAMELECT_MANIFEST");
  unsetenv("JAMELECT_MANIFEST_DIR");
}

}  // namespace
}  // namespace jamelect::obs
