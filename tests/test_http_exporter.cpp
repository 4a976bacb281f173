// Tests for the embedded observability HTTP server: request/response
// conformance (status codes, Content-Type, malformed/oversized/405/404
// rejection), lifecycle (port-in-use error, ephemeral-port discovery,
// idempotent shutdown), endpoint payloads (/metrics through the shared
// Prometheus grammar check, /status through the strict JSON parser), the
// 8-client concurrent scrape hammer with exact ps_http_requests_total
// reconciliation — which doubles as the TSan race against a live search —
// and a served 300-block corpus run that must answer /metrics and /status
// scrapes mid-run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_runner.hpp"
#include "ir/dag.hpp"
#include "obs/http_exporter.hpp"
#include "prometheus_grammar.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"

namespace pipesched {
namespace {

/// Minimal raw-socket HTTP client: one request, read to EOF (the server
/// always closes), split status/headers/body. Raw sockets rather than a
/// client library so the tests can also send deliberately broken bytes.
struct HttpResponse {
  int code = 0;
  std::string headers;  ///< raw header block (status line included)
  std::string body;
  bool ok = false;  ///< connected and got a complete response
};

HttpResponse raw_request(std::uint16_t port, const std::string& bytes) {
  HttpResponse resp;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return resp;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return resp;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return resp;
  resp.headers = raw.substr(0, head_end);
  resp.body = raw.substr(head_end + 4);
  // "HTTP/1.1 200 OK"
  if (resp.headers.compare(0, 5, "HTTP/") != 0) return resp;
  const std::size_t sp = resp.headers.find(' ');
  if (sp == std::string::npos) return resp;
  resp.code = std::atoi(resp.headers.c_str() + sp + 1);
  resp.ok = true;
  return resp;
}

HttpResponse get(std::uint16_t port, const std::string& target) {
  return raw_request(port, "GET " + target +
                               " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                               "Connection: close\r\n\r\n");
}

bool headers_contain(const HttpResponse& resp, const std::string& needle) {
  return resp.headers.find(needle) != std::string::npos;
}

/// Every test talks to the one process-wide metrics registry, so each
/// starts from a zeroed slate (the exact-reconciliation tests depend on
/// it) and leaves the registry disabled.
class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_enable();
    metrics_reset();
  }
  void TearDown() override { metrics_disable(); }
};

TEST_F(HttpExporterTest, EphemeralPortIsDiscoverable) {
  HttpExporter server;
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.base_url(),
            "http://127.0.0.1:" + std::to_string(server.port()));
}

TEST_F(HttpExporterTest, PortInUseIsCleanError) {
  HttpExporter first;
  HttpExporterOptions options;
  options.port = first.port();
  EXPECT_THROW(HttpExporter second(options), Error);
}

TEST_F(HttpExporterTest, HealthAndReadiness) {
  HttpExporter server;
  HttpResponse health = get(server.port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.code, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Not ready until the host says so.
  HttpResponse ready = get(server.port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.code, 503);
  server.set_ready(true);
  EXPECT_TRUE(server.ready());
  ready = get(server.port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.code, 200);
  EXPECT_EQ(ready.body, "ready\n");
}

TEST_F(HttpExporterTest, RootIndexListsEndpoints) {
  HttpExporter server;
  const HttpResponse resp = get(server.port(), "/");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_NE(resp.body.find("/metrics"), std::string::npos);
  EXPECT_NE(resp.body.find("/status"), std::string::npos);
}

TEST_F(HttpExporterTest, MetricsEndpointServesValidExposition) {
  HttpExporter server;
  metrics_counter("test_http_visible_total", {}, "visible to scrapes")
      .add(42);
  const HttpResponse resp = get(server.port(), "/metrics");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_TRUE(headers_contain(resp, "text/plain; version=0.0.4"));
  check_prometheus_grammar(resp.body);
  EXPECT_NE(resp.body.find("test_http_visible_total 42"), std::string::npos);
  // The build-info gauge is always present on a live exporter.
  EXPECT_NE(resp.body.find("ps_build_info{"), std::string::npos);
}

TEST_F(HttpExporterTest, MetricsJsonParses) {
  HttpExporter server;
  metrics_counter("test_http_json_total").increment();
  const HttpResponse resp = get(server.port(), "/metrics.json");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_TRUE(headers_contain(resp, "application/json"));
  const JsonValue doc = parse_json(resp.body);
  ASSERT_TRUE(doc.find("counters") != nullptr);
  ASSERT_TRUE(doc.find("counters")->is_array());
}

TEST_F(HttpExporterTest, StatusReportsProgressAndMonitors) {
  HttpExporter server;
  server.set_ready(true);

  // A live silent reporter and a live flight recorder: /status must see
  // both through the process-wide registries.
  ProgressReporter progress(10);
  progress.add();
  progress.add(/*errored=*/true);
  SearchMonitor monitor("status-test");
  monitor.heartbeat(100, 5, 3, 2, 1);  // 50% cache hits
  monitor.heartbeat(200, 4, 3, 7, 4);  // 60% since the previous beat

  const HttpResponse resp = get(server.port(), "/status");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_TRUE(headers_contain(resp, "application/json"));
  const JsonValue doc = parse_json(resp.body);

  const JsonValue* version = doc.find_path({"build", "version"});
  ASSERT_NE(version, nullptr);
  EXPECT_FALSE(version->as_string().empty());
  ASSERT_NE(doc.find("ready"), nullptr);
  EXPECT_TRUE(doc.find("ready")->as_bool());

  const JsonValue* prog = doc.find("progress");
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(prog->find("live")->as_bool());
  EXPECT_EQ(prog->find("done")->as_int64(), 2);
  EXPECT_EQ(prog->find("total")->as_int64(), 10);
  EXPECT_EQ(prog->find("errors")->as_int64(), 1);

  const JsonValue* monitors = doc.find("monitors");
  ASSERT_NE(monitors, nullptr);
  bool found = false;
  for (const JsonValue& m : monitors->as_array()) {
    if (m.find("label")->as_string() != "status-test") continue;
    found = true;
    const auto& beats = m.find("heartbeats")->as_array();
    ASSERT_EQ(beats.size(), 2u);
    EXPECT_EQ(beats[0].find("nodes")->as_int64(), 100);
    EXPECT_EQ(beats[1].find("nodes")->as_int64(), 200);
    EXPECT_EQ(beats[1].find("incumbent_nops")->as_int64(), 4);
  }
  EXPECT_TRUE(found);
  ASSERT_NE(doc.find("stacks"), nullptr);
}

TEST_F(HttpExporterTest, StacksEndpointAnswers) {
  HttpExporter server;
  const HttpResponse resp = get(server.port(), "/stacks");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_FALSE(resp.body.empty());
}

TEST_F(HttpExporterTest, UnknownPathIs404) {
  HttpExporter server;
  const HttpResponse resp = get(server.port(), "/no/such/endpoint");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 404);
}

TEST_F(HttpExporterTest, NonGetIs405WithAllowHeader) {
  HttpExporter server;
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD"}) {
    const HttpResponse resp = raw_request(
        server.port(), std::string(method) + " /metrics HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(resp.ok) << method;
    EXPECT_EQ(resp.code, 405) << method;
    EXPECT_TRUE(headers_contain(resp, "Allow: GET")) << method;
  }
}

TEST_F(HttpExporterTest, UnsupportedVersionIs505) {
  HttpExporter server;
  const HttpResponse resp =
      raw_request(server.port(), "GET /metrics HTTP/2.0\r\n\r\n");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 505);
}

TEST_F(HttpExporterTest, MalformedRequestIs400) {
  HttpExporter server;
  for (const char* garbage :
       {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET  /two-spaces HTTP/1.1\r\n\r\n",
        "GET / NOTHTTP\r\n\r\n", "GET / HTTP/1.1 extra\r\n\r\n"}) {
    const HttpResponse resp = raw_request(server.port(), garbage);
    ASSERT_TRUE(resp.ok) << garbage;
    EXPECT_EQ(resp.code, 400) << garbage;
  }
}

TEST_F(HttpExporterTest, OversizedRequestIs431) {
  HttpExporter server;
  // > 8 KiB of headers with no terminating blank line.
  std::string huge = "GET /metrics HTTP/1.1\r\n";
  while (huge.size() <= 9000) huge += "X-Padding: aaaaaaaaaaaaaaaa\r\n";
  huge += "\r\n";
  const HttpResponse resp = raw_request(server.port(), huge);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 431);
}

TEST_F(HttpExporterTest, ShutdownIsCleanAndIdempotent) {
  HttpExporterOptions options;
  HttpExporter server(options);
  const std::uint16_t port = server.port();
  ASSERT_TRUE(get(port, "/healthz").ok);
  server.stop();
  server.stop();  // idempotent
  // The port no longer answers.
  EXPECT_FALSE(get(port, "/healthz").ok);
}

TEST_F(HttpExporterTest, ProfileEndpointCollectsAndConflicts) {
  HttpExporterOptions options;
  options.max_profile_seconds = 0.3;  // clamp target
  HttpExporter server(options);

  // Busy thread with annotated phases so the window catches samples.
  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    while (!stop.load()) {
      PS_PROF_PHASE("http_profile_test");
      volatile int x = 0;
      for (int i = 0; i < 1000; ++i) x = x + i;
    }
  });

  const HttpResponse resp = get(server.port(), "/profile?seconds=0.2");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, 200);
  EXPECT_NE(resp.body.find("http_profile_test"), std::string::npos);
  EXPECT_FALSE(profiler_enabled());  // session closed after the window

  // Bad queries are 400, not silently defaulted.
  EXPECT_EQ(get(server.port(), "/profile?seconds=").code, 400);
  EXPECT_EQ(get(server.port(), "/profile?seconds=abc").code, 400);
  EXPECT_EQ(get(server.port(), "/profile?seconds=-1").code, 400);
  EXPECT_EQ(get(server.port(), "/profile?minutes=1").code, 400);

  // seconds=100 must clamp to max_profile_seconds, not sleep 100s.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(get(server.port(), "/profile?seconds=100").code, 200);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0);

  // A CLI-owned --profile session makes /profile answer 409.
  profiler_enable();
  const HttpResponse conflict = get(server.port(), "/profile?seconds=0.1");
  ASSERT_TRUE(conflict.ok);
  EXPECT_EQ(conflict.code, 409);
  profiler_disable();

  stop.store(true);
  busy.join();
}

// 8 concurrent clients x 25 scrapes each, racing a live search that runs
// until the last client is done (this test is the TSan lane's main
// target: server workers read the same registries the search writes). At
// quiescence the server's own ps_http_requests_total must reconcile
// EXACTLY with client receipts — the contract that only fully-written
// responses count.
TEST_F(HttpExporterTest, ConcurrentScrapeHammerReconcilesExactly) {
  HttpExporter server;
  server.set_ready(true);
  const std::uint16_t port = server.port();

  // The racing search: with the dominance cache off, this 22-tuple block
  // is not proven within lambda, so each search expands ~30k nodes with
  // heartbeats flowing. It repeats until the clients are done, so it
  // covers the whole hammer and stops soon after.
  std::atomic<bool> clients_done{false};
  std::thread search([&clients_done] {
    GeneratorParams params;
    params.statements = 40;
    params.variables = 8;
    params.constants = 3;
    params.seed = 31337;
    const BasicBlock block = generate_block(params);
    const DepGraph dag(block);
    SearchConfig config;
    config.curtail_lambda = 50000;
    config.dominance_cache = false;
    while (!clients_done.load()) {
      (void)run_optimal_backend(Machine::paper_simulation(), dag, config);
    }
  });

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok_health{0}, ok_status{0}, ok_metrics{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        // Mostly /healthz (the reconciled endpoint), with /status and
        // /metrics mixed in to race the JSON/exposition render paths.
        if (i % 5 == 3) {
          if (get(port, "/status").code == 200) ok_status.fetch_add(1);
        } else if (i % 5 == 4) {
          if (get(port, "/metrics").code == 200) ok_metrics.fetch_add(1);
        } else {
          if (get(port, "/healthz").code == 200) ok_health.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  clients_done.store(true);
  search.join();

  // Every request must have succeeded.
  EXPECT_EQ(ok_health.load(), kClients * 15);
  EXPECT_EQ(ok_status.load(), kClients * 5);
  EXPECT_EQ(ok_metrics.load(), kClients * 5);

  // Exact reconciliation at quiescence, per endpoint.
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.value_or_zero(
                "ps_http_requests_total",
                {{"endpoint", "/healthz"}, {"code", "200"}}),
            kClients * 15);
  EXPECT_EQ(snapshot.value_or_zero(
                "ps_http_requests_total",
                {{"endpoint", "/status"}, {"code", "200"}}),
            kClients * 5);
  EXPECT_EQ(snapshot.value_or_zero(
                "ps_http_requests_total",
                {{"endpoint", "/metrics"}, {"code", "200"}}),
            kClients * 5);
  // And the latency histogram observed every one of them.
  const MetricsSnapshot::Series* latency = snapshot.find(
      "ps_http_request_seconds", {{"endpoint", "/healthz"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, static_cast<std::uint64_t>(kClients * 15));
}

// The acceptance scenario: a served 300-block corpus run must answer
// /metrics and /status while blocks are still in flight. The fault hook
// stretches each block by ~2ms so 300 blocks give the scraper a window
// measured in hundreds of milliseconds even on one core.
TEST_F(HttpExporterTest, ServedCorpusRunAnswersScrapesMidRun) {
  HttpExporter server;
  server.set_ready(true);
  const std::uint16_t port = server.port();

  CorpusSpec spec;
  spec.total_runs = 300;
  CorpusRunOptions options;
  options.fault_hook = [](std::size_t, const BasicBlock&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };

  std::atomic<bool> corpus_done{false};
  std::atomic<int> live_scrapes{0};  ///< scrapes showing 0 < done < 300
  std::atomic<int> failed{0};
  std::thread scraper([&] {
    while (!corpus_done.load()) {
      const HttpResponse status = get(port, "/status");
      const HttpResponse metrics = get(port, "/metrics");
      if (!status.ok || status.code != 200 || !metrics.ok ||
          metrics.code != 200) {
        failed.fetch_add(1);
        continue;
      }
      const JsonValue doc = parse_json(status.body);
      const JsonValue* prog = doc.find("progress");
      ASSERT_NE(prog, nullptr);
      if (prog->find("live")->as_bool()) {
        EXPECT_EQ(prog->find("total")->as_int64(), 300);
        const std::int64_t done = prog->find("done")->as_int64();
        if (done > 0 && done < 300) live_scrapes.fetch_add(1);
      }
    }
  });

  // No explicit ProgressReporter: the corpus runner's silent fallback is
  // what feeds /status here.
  const std::vector<RunRecord> records =
      run_corpus(corpus_params(spec), options);
  corpus_done.store(true);
  scraper.join();

  EXPECT_EQ(records.size(), 300u);
  EXPECT_EQ(failed.load(), 0);
  // The scraper must have caught the run mid-flight at least once.
  EXPECT_GT(live_scrapes.load(), 0);
}

}  // namespace
}  // namespace pipesched
