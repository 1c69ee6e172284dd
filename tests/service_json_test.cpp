// Service JSON layer: parser correctness, canonical-dump idempotence,
// and the deterministic manifest fingerprint (the cache-key contract:
// same config -> byte-identical canonical JSON -> identical hash, no
// matter the field insertion order or how many times it's serialized).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "service/json.hpp"
#include "service/sweep_request.hpp"

namespace jamelect::service {
namespace {

TEST(ServiceJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_EQ(Json::parse("false")->as_bool(true), false);
  EXPECT_EQ(Json::parse("42")->as_int(), 42);
  EXPECT_EQ(Json::parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("0.5")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(ServiceJson, IntegerVsDoubleLexing) {
  EXPECT_TRUE(Json::parse("42")->is_int());
  EXPECT_FALSE(Json::parse("42.0")->is_int());
  EXPECT_TRUE(Json::parse("42.0")->is_number());
  // int64 boundary stays integral; beyond it falls back to double.
  EXPECT_TRUE(Json::parse("9223372036854775807")->is_int());
  EXPECT_EQ(Json::parse("9223372036854775807")->as_int(),
            9223372036854775807LL);
  EXPECT_FALSE(Json::parse("9223372036854775808")->is_int());
}

TEST(ServiceJson, ParsesNestedStructures) {
  const auto doc =
      Json::parse(R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(doc.has_value());
  const Json* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[0].as_int(), 1);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(doc->find("c")->find("d")->is_null());
  EXPECT_EQ(doc->find("nope"), nullptr);
}

TEST(ServiceJson, StringEscapes) {
  const auto doc = Json::parse(R"("a\"b\\c\n\tAé")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(ServiceJson, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Json::parse("", &error).has_value());
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(Json::parse("tru", &error).has_value());
  EXPECT_FALSE(Json::parse("1 2", &error).has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ServiceJson, RejectsExcessiveDepth) {
  std::string deep(static_cast<std::size_t>(Json::kMaxDepth) + 8, '[');
  deep += std::string(static_cast<std::size_t>(Json::kMaxDepth) + 8, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(ServiceJson, DumpIsCanonicalAndIdempotent) {
  // Key order in the source text must not matter: objects dump sorted.
  const auto a = Json::parse(R"({"z":1,"a":{"y":2,"b":[3,0.5]},"m":"s"})");
  const auto b = Json::parse(R"({"m":"s","a":{"b":[3,0.5],"y":2},"z":1})");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->dump(), b->dump());
  // parse(dump(x)) -> dump == dump(x): the disk round-trip invariant.
  const std::string once = a->dump();
  const auto reparsed = Json::parse(once);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), once);
}

TEST(ServiceJson, DumpRoundTripsDoublesExactly) {
  const Json v(0.1 + 0.2);  // classic non-representable sum
  const auto back = Json::parse(v.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_double(), 0.1 + 0.2);  // bitwise, via %.17g
}

// --- Satellite: deterministic manifest cache key ---------------------

TEST(CanonicalConfig, ByteIdenticalAcrossInsertionOrders) {
  std::map<std::string, std::string> forward;
  forward["protocol"] = "lesk";
  forward["n"] = "1024";
  forward["eps"] = obs::canonical_number(0.5);
  forward["seed"] = "7";

  std::map<std::string, std::string> reversed;
  reversed["seed"] = "7";
  reversed["eps"] = obs::canonical_number(0.5);
  reversed["n"] = "1024";
  reversed["protocol"] = "lesk";

  EXPECT_EQ(obs::canonical_config_json(forward),
            obs::canonical_config_json(reversed));
  EXPECT_EQ(obs::config_fingerprint(forward),
            obs::config_fingerprint(reversed));
}

TEST(CanonicalConfig, FingerprintStableAcrossRepeatedSerializations) {
  SweepRequest request;
  request.n = 2048;
  request.eps = 0.3;
  request.seed = 123456789;
  const std::string first = request.cache_key();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(request.cache_key(), first);
  }
  EXPECT_EQ(first.size(), 32u);  // 128-bit hex
  EXPECT_EQ(first.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(CanonicalConfig, FingerprintSeparatesDistinctRequests) {
  SweepRequest a;
  SweepRequest b = a;
  b.seed = a.seed + 1;
  SweepRequest c = a;
  c.eps = 0.25;
  SweepRequest d = a;
  d.protocol = "lesu";
  EXPECT_NE(a.cache_key(), b.cache_key());
  EXPECT_NE(a.cache_key(), c.cache_key());
  EXPECT_NE(a.cache_key(), d.cache_key());
  EXPECT_NE(b.cache_key(), c.cache_key());
}

TEST(CanonicalConfig, BatchDoesNotChangeTheKey) {
  // Lane count is a throughput knob; by the batch-equivalence contract
  // outcomes are bit-identical, so it must share one cache entry.
  SweepRequest a;
  a.batch = 0;
  SweepRequest b = a;
  b.batch = 512;
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

TEST(CanonicalConfig, CanonicalNumberFormats) {
  EXPECT_EQ(obs::canonical_number(4096.0), "4096");
  EXPECT_EQ(obs::canonical_number(-3.0), "-3");
  EXPECT_EQ(obs::canonical_number(0.0), "0");
  // Non-integral values round-trip exactly and identically every time.
  const std::string half = obs::canonical_number(0.5);
  EXPECT_EQ(half, obs::canonical_number(0.25 + 0.25));
  EXPECT_EQ(obs::canonical_number(0.1), obs::canonical_number(0.1));
}

TEST(SweepRequestJson, FromJsonRejectsUnknownFields) {
  const SweepLimits limits;
  std::string why;
  const auto params = Json::parse(R"({"n":64,"trails":8})");  // typo
  ASSERT_TRUE(params.has_value());
  const auto request = SweepRequest::from_json(*params, limits, &why);
  EXPECT_FALSE(request.has_value());
  EXPECT_NE(why.find("trails"), std::string::npos);
}

TEST(SweepRequestJson, FromJsonRejectsOutOfRange) {
  const SweepLimits limits;
  std::string why;
  const auto params = Json::parse(R"({"trials":2000000})");
  ASSERT_TRUE(params.has_value());
  EXPECT_FALSE(SweepRequest::from_json(*params, limits, &why).has_value());
  const auto bad_eps = Json::parse(R"({"eps":1.5})");
  EXPECT_FALSE(SweepRequest::from_json(*bad_eps, limits, &why).has_value());
  const auto bad_protocol = Json::parse(R"({"protocol":"aloha"})");
  EXPECT_FALSE(
      SweepRequest::from_json(*bad_protocol, limits, &why).has_value());
  // Requests the compute path would refuse are refused at admission.
  for (const char* bad :
       {R"({"engine":"hybrid","n":2})", R"({"adversary":"pulse","on":0})",
        R"({"adversary":"pulse","off":-1})",
        R"({"adversary":"pulse","on":4611686018427387904,)"
        R"("off":4611686018427387904})"}) {
    const auto doc = Json::parse(bad);
    ASSERT_TRUE(doc.has_value()) << bad;
    EXPECT_FALSE(SweepRequest::from_json(*doc, limits, &why).has_value())
        << bad;
  }
  // The same fields stay legal where they apply or are ignored.
  for (const char* good :
       {R"({"engine":"hybrid","n":3})", R"({"adversary":"pulse","off":0})",
        R"({"adversary":"none","on":0,"off":-1})"}) {
    const auto doc = Json::parse(good);
    ASSERT_TRUE(doc.has_value()) << good;
    EXPECT_TRUE(SweepRequest::from_json(*doc, limits, &why).has_value())
        << good << ": " << why;
  }
}

TEST(SweepRequestJson, ParsedRequestKeyMatchesProgrammatic) {
  const SweepLimits limits;
  std::string why;
  const auto params =
      Json::parse(R"({"seed":9,"eps":0.5,"n":512,"trials":16})");
  ASSERT_TRUE(params.has_value());
  const auto parsed = SweepRequest::from_json(*params, limits, &why);
  ASSERT_TRUE(parsed.has_value()) << why;
  SweepRequest direct;
  direct.n = 512;
  direct.eps = 0.5;
  direct.seed = 9;
  direct.trials = 16;
  EXPECT_EQ(parsed->cache_key(), direct.cache_key());
}

}  // namespace
}  // namespace jamelect::service
