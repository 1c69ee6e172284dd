// SocketServer end-to-end on an ephemeral port: line protocol (ping /
// sweep / status / metrics), the HTTP/1.1 shim, heartbeats, and
// backpressure surfacing as 429.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace jamelect::service {
namespace {

/// A service+server pair on 127.0.0.1:<ephemeral>.
class ServerFixture {
 public:
  explicit ServerFixture(ServiceConfig svc_cfg = {}) {
    service = std::make_unique<SweepService>(svc_cfg);
    ServerConfig srv_cfg;
    srv_cfg.port = 0;
    srv_cfg.heartbeat_ms = 50;
    srv_cfg.idle_poll_ms = 20;
    server = std::make_unique<SocketServer>(*service, srv_cfg);
    std::string error;
    started = server->start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~ServerFixture() {
    service->stop();  // resolve jobs first so waiters release...
    server->stop();   // ...then drain connections
  }

  [[nodiscard]] Socket connect() const {
    std::string error;
    auto sock = tcp_connect("127.0.0.1", server->port(), &error);
    EXPECT_TRUE(sock.valid()) << error;
    return sock;
  }

  std::unique_ptr<SweepService> service;
  std::unique_ptr<SocketServer> server;
  bool started = false;
};

/// Sends one line and reads response lines until a terminal type.
std::vector<Json> roundtrip(int fd, const std::string& line,
                            int max_lines = 200) {
  EXPECT_TRUE(send_all(fd, line + "\n"));
  std::vector<Json> out;
  LineReader reader;
  for (int i = 0; i < max_lines; ++i) {
    const auto resp = reader.read_line(fd, 30'000);
    if (!resp.has_value()) break;
    auto doc = Json::parse(*resp);
    EXPECT_TRUE(doc.has_value()) << *resp;
    if (!doc.has_value()) break;
    const Json* type = doc->find("type");
    const std::string kind = type != nullptr ? type->as_string() : "";
    out.push_back(std::move(*doc));
    if (kind == "result" || kind == "error" || kind == "pong" ||
        kind == "status" || kind == "metrics") {
      break;
    }
  }
  return out;
}

std::string small_sweep(std::uint64_t seed, std::size_t trials = 16) {
  return "{\"op\":\"sweep\",\"params\":{\"n\":128,\"trials\":" +
         std::to_string(trials) + ",\"seed\":" + std::to_string(seed) +
         ",\"max_slots\":10000}}";
}

TEST(ServiceServer, PingPong) {
  const ServerFixture fx;
  const auto sock = fx.connect();
  const auto lines = roundtrip(sock.fd(), "{\"op\":\"ping\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines.back().find("type")->as_string(), "pong");
}

TEST(ServiceServer, SweepMissThenHitOnOneConnection) {
  const ServerFixture fx;
  const auto sock = fx.connect();

  const auto first = roundtrip(sock.fd(), small_sweep(42));
  ASSERT_FALSE(first.empty());
  const Json& result = first.back();
  ASSERT_EQ(result.find("type")->as_string(), "result");
  EXPECT_EQ(result.find("cache")->as_string(), "miss");
  const Json* payload = result.find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->find("trials")->as_int(), 16);

  const auto second = roundtrip(sock.fd(), small_sweep(42));
  ASSERT_EQ(second.size(), 1u);  // hits resolve inline, no ack
  EXPECT_EQ(second.back().find("type")->as_string(), "result");
  EXPECT_EQ(second.back().find("cache")->as_string(), "hit");
  EXPECT_EQ(second.back().find("result")->dump(), payload->dump());
}

TEST(ServiceServer, StatusAndMetricsOps) {
  const ServerFixture fx;
  const auto sock = fx.connect();
  const auto sweep = roundtrip(sock.fd(), small_sweep(7));
  ASSERT_FALSE(sweep.empty());
  const std::string id = sweep.front().find("id")->as_string();
  ASSERT_FALSE(id.empty());

  const auto status =
      roundtrip(sock.fd(), "{\"op\":\"status\",\"id\":\"" + id + "\"}");
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status.back().find("type")->as_string(), "status");
  EXPECT_EQ(status.back().find("state")->as_string(), "done");

  const auto missing =
      roundtrip(sock.fd(), "{\"op\":\"status\",\"id\":\"j999999\"}");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing.back().find("code")->as_int(), 404);

  const auto metrics = roundtrip(sock.fd(), "{\"op\":\"metrics\"}");
  ASSERT_EQ(metrics.size(), 1u);
  const Json* body = metrics.back().find("metrics");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->find("counters"), nullptr);
  EXPECT_NE(body->find("histograms"), nullptr);
}

TEST(ServiceServer, MalformedAndInvalidRequests) {
  const ServerFixture fx;
  const auto sock = fx.connect();
  auto bad = roundtrip(sock.fd(), "{not json");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.back().find("code")->as_int(), 400);

  bad = roundtrip(sock.fd(), "{\"op\":\"frobnicate\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.back().find("code")->as_int(), 400);

  bad = roundtrip(sock.fd(),
                  "{\"op\":\"sweep\",\"params\":{\"protocol\":\"aloha\"}}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.back().find("code")->as_int(), 400);
  // The connection survives bad requests.
  const auto pong = roundtrip(sock.fd(), "{\"op\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
}

TEST(ServiceServer, RngFieldIsA400NotASilentResult) {
  // Every sweep runs the xoshiro streams of the sequential engines; a
  // client still naming a random-stream backend gets a 400 instead of
  // a result it might read as that backend's.
  const ServerFixture fx;
  const auto sock = fx.connect();
  const auto bad = roundtrip(
      sock.fd(),
      "{\"op\":\"sweep\",\"params\":{\"n\":128,\"trials\":16,"
      "\"seed\":7,\"batch\":64,\"rng\":\"aes_ctr\"}}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.back().find("code")->as_int(), 400);
  EXPECT_NE(bad.back().find("error")->as_string().find("unknown field 'rng'"),
            std::string::npos);
  EXPECT_EQ(fx.service->computed(), 0u);
}

TEST(ServiceServer, RequestsComputeWouldRefuseAre400s) {
  // A hybrid sweep below n = 3 or a pulse schedule the policy cannot
  // hold is a client error at admission, not an internal error from
  // the worker.
  const ServerFixture fx;
  const auto sock = fx.connect();
  for (const std::string params :
       {R"({"engine":"hybrid","n":2,"trials":4})",
        R"({"adversary":"pulse","on":0,"trials":4})",
        R"({"adversary":"pulse","off":-1,"trials":4})",
        R"({"adversary":"pulse","on":4611686018427387904,)"
        R"("off":4611686018427387904,"trials":4})"}) {
    const auto bad =
        roundtrip(sock.fd(), "{\"op\":\"sweep\",\"params\":" + params + "}");
    ASSERT_EQ(bad.size(), 1u) << params;
    EXPECT_EQ(bad.back().find("code")->as_int(), 400) << params;
  }
  EXPECT_EQ(fx.service->computed(), 0u);
}

TEST(ServiceServer, QueueFullSurfacesAs429) {
  ServiceConfig svc_cfg;
  svc_cfg.workers = 1;
  svc_cfg.max_queue = 1;
  const ServerFixture fx(svc_cfg);
  const auto sock = fx.connect();
  // Fire-and-forget sweeps (wait:false) with distinct seeds until the
  // one-slot queue overflows.
  bool saw_429 = false;
  for (std::uint64_t i = 0; i < 32 && !saw_429; ++i) {
    const std::string line =
        "{\"op\":\"sweep\",\"wait\":false,\"params\":{\"n\":512,"
        "\"trials\":256,\"seed\":" +
        std::to_string(5000 + i) + ",\"max_slots\":50000}}";
    const auto resp = roundtrip(sock.fd(), line, 1);
    ASSERT_EQ(resp.size(), 1u);
    const std::string kind = resp.back().find("type")->as_string();
    if (kind == "error") {
      EXPECT_EQ(resp.back().find("code")->as_int(), 429);
      saw_429 = true;
    } else {
      EXPECT_EQ(kind, "ack");
    }
  }
  EXPECT_TRUE(saw_429);
}

TEST(ServiceServer, HeartbeatsStreamWhileASweepRuns) {
  const ServerFixture fx;
  const auto sock = fx.connect();
  // Heavy enough to outlast a couple of 50ms heartbeat periods.
  const std::string line =
      "{\"op\":\"sweep\",\"params\":{\"n\":2048,\"trials\":20000,"
      "\"seed\":31415,\"adversary\":\"saturating\",\"T\":64,"
      "\"max_slots\":50000}}";
  const auto lines = roundtrip(sock.fd(), line);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().find("type")->as_string(), "ack");
  EXPECT_EQ(lines.back().find("type")->as_string(), "result");
  std::size_t heartbeats = 0;
  for (const auto& doc : lines) {
    if (doc.find("type")->as_string() == "heartbeat") ++heartbeats;
  }
  // Not asserted > 0: a fast machine may finish inside one period.
  SUCCEED() << heartbeats << " heartbeats";
}

TEST(ServiceServer, TraceIdEchoedWithTimingBreakdown) {
  const ServerFixture fx;
  const auto sock = fx.connect();
  const std::string trace = obs::TraceId::derive(0xfeed, 0xbeef).hex();

  // Envelope-level "trace" (never inside params: params feed the cache
  // key) → the result must echo the same id plus a timing breakdown.
  const std::string line =
      "{\"op\":\"sweep\",\"trace\":\"" + trace +
      "\",\"params\":{\"n\":128,\"trials\":16,\"seed\":4242,"
      "\"max_slots\":10000}}";
  const auto first = roundtrip(sock.fd(), line);
  ASSERT_FALSE(first.empty());
  // The ack for a miss carries the trace too.
  EXPECT_EQ(first.front().find("type")->as_string(), "ack");
  ASSERT_NE(first.front().find("trace"), nullptr);
  EXPECT_EQ(first.front().find("trace")->as_string(), trace);

  const Json& result = first.back();
  ASSERT_EQ(result.find("type")->as_string(), "result");
  ASSERT_NE(result.find("trace"), nullptr);
  EXPECT_EQ(result.find("trace")->as_string(), trace);
  const Json* timing = result.find("timing");
  ASSERT_NE(timing, nullptr);
  for (const char* field : {"admission_us", "cache_probe_us", "queue_us",
                            "compute_us", "serialize_us"}) {
    ASSERT_NE(timing->find(field), nullptr) << field;
    EXPECT_GE(timing->find(field)->as_int(), 0) << field;
  }
  // A real sweep spent observable time computing.
  EXPECT_GT(timing->find("compute_us")->as_int(), 0);

  // Cache hit with a fresh trace: echoed verbatim, timing present,
  // compute zero (no sweep ran).
  const std::string trace2 = obs::TraceId::derive(0xdead, 0xcafe).hex();
  const std::string line2 =
      "{\"op\":\"sweep\",\"trace\":\"" + trace2 +
      "\",\"params\":{\"n\":128,\"trials\":16,\"seed\":4242,"
      "\"max_slots\":10000}}";
  const auto second = roundtrip(sock.fd(), line2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.back().find("cache")->as_string(), "hit");
  ASSERT_NE(second.back().find("trace"), nullptr);
  EXPECT_EQ(second.back().find("trace")->as_string(), trace2);
  const Json* hit_timing = second.back().find("timing");
  ASSERT_NE(hit_timing, nullptr);
  EXPECT_EQ(hit_timing->find("compute_us")->as_int(), 0);

  // An untraced sweep keeps working and omits the trace field.
  const auto untraced = roundtrip(sock.fd(), small_sweep(4242));
  ASSERT_FALSE(untraced.empty());
  EXPECT_EQ(untraced.back().find("type")->as_string(), "result");
  EXPECT_EQ(untraced.back().find("trace"), nullptr);
  EXPECT_NE(untraced.back().find("timing"), nullptr);

  // Malformed trace ids are rejected up front.
  for (const std::string& bad :
       {std::string("xyz"), std::string(32, 'g'), std::string(32, '0')}) {
    const auto resp = roundtrip(
        sock.fd(), "{\"op\":\"sweep\",\"trace\":\"" + bad +
                       "\",\"params\":{\"n\":128,\"trials\":16,"
                       "\"seed\":4243,\"max_slots\":10000}}");
    ASSERT_EQ(resp.size(), 1u) << bad;
    EXPECT_EQ(resp.back().find("code")->as_int(), 400) << bad;
  }
  // The service remembers the last traced request for the manifest.
  EXPECT_EQ(fx.service->last_trace().hex(), trace2);
}

TEST(ServiceServer, HttpShimSweepStatusMetrics) {
  const ServerFixture fx;

  // POST /sweep with a bare params body.
  {
    const auto sock = fx.connect();
    const std::string body =
        "{\"n\":128,\"trials\":16,\"seed\":77,\"max_slots\":10000}";
    const std::string request =
        "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_TRUE(send_all(sock.fd(), request));
    LineReader reader;
    const auto status_line = reader.read_line(sock.fd(), 30'000);
    ASSERT_TRUE(status_line.has_value());
    EXPECT_NE(status_line->find("200 OK"), std::string::npos);
  }
  // Same request again: still 200, now served from cache.
  std::string second_body;
  {
    const auto sock = fx.connect();
    const std::string body =
        "{\"n\":128,\"trials\":16,\"seed\":77,\"max_slots\":10000}";
    const std::string request =
        "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_TRUE(send_all(sock.fd(), request));
    LineReader reader;
    std::size_t content_length = 0;
    for (;;) {
      const auto line = reader.read_line(sock.fd(), 30'000);
      ASSERT_TRUE(line.has_value());
      if (line->empty()) break;
      if (line->rfind("Content-Length:", 0) == 0) {
        content_length = static_cast<std::size_t>(
            std::stoull(line->substr(15)));
      }
    }
    ASSERT_GT(content_length, 0u);
    const auto body_read = reader.read_exact(sock.fd(),
                                             content_length, 30'000);
    ASSERT_TRUE(body_read.has_value());
    second_body = *body_read;
    const auto doc = Json::parse(second_body);
    ASSERT_TRUE(doc.has_value()) << second_body;
    EXPECT_EQ(doc->find("cache")->as_string(), "hit");
  }
  // GET /metrics serves Prometheus text.
  {
    const auto sock = fx.connect();
    ASSERT_TRUE(send_all(sock.fd(), "GET /metrics HTTP/1.1\r\n\r\n"));
    LineReader reader;
    const auto status_line = reader.read_line(sock.fd(), 30'000);
    ASSERT_TRUE(status_line.has_value());
    EXPECT_NE(status_line->find("200 OK"), std::string::npos);
    bool saw_counter = false;
    for (int i = 0; i < 500; ++i) {
      const auto line = reader.read_line(sock.fd(), 2'000);
      if (!line.has_value()) break;
      if (line->rfind("jamelect_svc_requests_total", 0) == 0) {
        saw_counter = true;
      }
    }
    EXPECT_TRUE(saw_counter);
  }
  // Unknown endpoint -> 404.
  {
    const auto sock = fx.connect();
    ASSERT_TRUE(send_all(sock.fd(), "GET /nope HTTP/1.1\r\n\r\n"));
    LineReader reader;
    const auto status_line = reader.read_line(sock.fd(), 30'000);
    ASSERT_TRUE(status_line.has_value());
    EXPECT_NE(status_line->find("404"), std::string::npos);
  }
}

}  // namespace
}  // namespace jamelect::service
