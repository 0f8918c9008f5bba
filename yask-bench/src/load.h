// The benchmark's HTTP clients: /query load phases (closed and open loop)
// from a few keep-alive connections, and why-not sessions
// (/query -> /whynot -> /forget) from one.

#ifndef YASK_BENCH_LOAD_H_
#define YASK_BENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/query/query.h"
#include "src/server/http_client.h"

namespace yask_bench {

/// The payload without the fields that legitimately differ between two
/// servers answering the same request: `query_id` and `response_millis`.
std::string StripVolatile(const std::string& payload);

/// Production-shaped /query traffic: one request body per shape, the
/// stripped payload each shape must produce, and the Zipf popularity.
struct QueryTraffic {
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  yask::ZipfSampler popularity{1, 1.0};
};

struct PhaseResult {
  size_t requests = 0;
  size_t failed = 0;      // Transport errors and non-200 answers.
  size_t mismatches = 0;  // 200 answers whose bytes differ from `expected`.
  double seconds = 0.0;
  std::vector<double> latency_ms;  // Open loop: timed from when it was due.
  std::vector<double> late_ms;     // Open loop: send time minus due time.
  double client_cpu_ms = 0.0;      // CPU time of the client threads.
  double server_cpu_ms = 0.0;      // CPU time of every other thread.

  double rps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  /// Server-side CPU per request: the process's CPU time during the phase
  /// minus the client threads' own.
  double server_cpu_ms_per_request() const {
    return requests > 0 ? server_cpu_ms / static_cast<double>(requests) : 0.0;
  }
};

/// Sends /query traffic to `port` from `conns` keep-alive connections for
/// `seconds`. `rate` = 0 runs a closed loop; otherwise the connections send
/// at `rate` requests/s in total on a fixed schedule (open loop). The
/// servers must run in this process for `server_cpu_ms` to mean anything.
PhaseResult RunQueryPhase(uint16_t port, const QueryTraffic& traffic,
                          size_t conns, double seconds, double rate,
                          uint64_t seed);

/// Sends every traffic shape once, in order, from one connection, so the
/// coordinator's object cache holds every result before concurrent traffic
/// starts. Concurrent /query requests that fetch the same uncached objects
/// can crash the coordinator (RemoteCorpus::Prefetch replaces a cache entry
/// another request still reads; see CHANGES.md), so the benchmark never
/// sends them.
PhaseResult WarmUp(uint16_t port, const QueryTraffic& traffic);

/// One why-not session on `conn`.
struct SessionResult {
  bool ok = false;
  std::string error;
  std::string query_payload;
  std::string whynot_payload;
  double whynot_ms = 0.0;   // The /whynot exchange alone.
  double session_ms = 0.0;  // /query + /whynot + /forget.
};
SessionResult AskWhyNot(yask::HttpClientConnection* conn,
                        const std::string& query_body,
                        const std::vector<yask::ObjectId>& missing);

}  // namespace yask_bench

#endif  // YASK_BENCH_LOAD_H_
