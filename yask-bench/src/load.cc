#include "load.h"

#include <cstdlib>
#include <thread>

#include "common.h"

namespace yask_bench {
namespace {

constexpr int kDeadlineMs = 60000;

void EraseField(std::string* payload, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t start = payload->find(needle);
  if (start == std::string::npos) return;
  size_t end = payload->find_first_of(",}", start + needle.size());
  if (end == std::string::npos) return;
  if ((*payload)[end] == ',') {
    payload->erase(start, end + 1 - start);
  } else if (start > 0 && (*payload)[start - 1] == ',') {
    payload->erase(start - 1, end - start + 1);
  } else {
    payload->erase(start, end - start);
  }
}

uint64_t QueryIdOf(const std::string& payload) {
  const std::string needle = "\"query_id\":";
  const size_t at = payload.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(payload.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

std::string StripVolatile(const std::string& payload) {
  std::string out = payload;
  EraseField(&out, "query_id");
  EraseField(&out, "response_millis");
  return out;
}

PhaseResult RunQueryPhase(uint16_t port, const QueryTraffic& traffic,
                          size_t conns, double seconds, double rate,
                          uint64_t seed) {
  std::vector<PhaseResult> per_conn(conns);
  const double process_cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < conns; ++c) {
    clients.emplace_back([&, c] {
      PhaseResult& out = per_conn[c];
      // Charges this thread's CPU time to the client on every exit path.
      struct ClientCpu {
        PhaseResult* out;
        const double start = ThreadCpuMs();
        ~ClientCpu() { out->client_cpu_ms += ThreadCpuMs() - start; }
      } client_cpu{&out};
      yask::Rng rng(seed * 1000003 + c);
      yask::HttpClientConnection conn;
      if (!conn.Connect("127.0.0.1", port, 2000).ok()) {
        ++out.failed;
        return;
      }
      // Open loop: each connection owns every conns-th slot of the schedule.
      const double interval_s =
          rate > 0.0 ? static_cast<double>(conns) / rate : 0.0;
      const double offset_s =
          rate > 0.0 ? static_cast<double>(c) / rate : 0.0;
      for (size_t i = 0;; ++i) {
        Clock::time_point due = Clock::now();
        if (rate > 0.0) {
          due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                            (offset_s + interval_s * static_cast<double>(i)) *
                            1e9));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
          out.late_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count());
        } else if (due >= end) {
          break;
        }
        const size_t shape = traffic.popularity.Sample(&rng);
        int status = 0;
        auto resp = conn.Call("POST", "/query", traffic.bodies[shape],
                              kDeadlineMs, &status);
        out.latency_ms.push_back(MsSince(due));
        ++out.requests;
        if (!resp.ok() || status != 200) {
          ++out.failed;
          if (!resp.ok() && !conn.Connect("127.0.0.1", port, 2000).ok()) return;
          continue;
        }
        if (StripVolatile(*resp) != traffic.expected[shape]) ++out.mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseResult total;
  total.seconds = MsSince(start) / 1000.0;
  const double process_cpu = ProcessCpuMs() - process_cpu_start;
  for (const PhaseResult& r : per_conn) {
    total.client_cpu_ms += r.client_cpu_ms;
    total.requests += r.requests;
    total.failed += r.failed;
    total.mismatches += r.mismatches;
    total.latency_ms.insert(total.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
    total.late_ms.insert(total.late_ms.end(), r.late_ms.begin(),
                         r.late_ms.end());
  }
  total.server_cpu_ms = process_cpu - total.client_cpu_ms;
  return total;
}

PhaseResult WarmUp(uint16_t port, const QueryTraffic& traffic) {
  PhaseResult out;
  const Clock::time_point start = Clock::now();
  yask::HttpClientConnection conn;
  if (!conn.Connect("127.0.0.1", port, 2000).ok()) {
    ++out.failed;
    return out;
  }
  for (size_t shape = 0; shape < traffic.bodies.size(); ++shape) {
    int status = 0;
    auto resp = conn.Call("POST", "/query", traffic.bodies[shape],
                          kDeadlineMs, &status);
    ++out.requests;
    if (!resp.ok() || status != 200) {
      ++out.failed;
      if (!resp.ok() && !conn.Connect("127.0.0.1", port, 2000).ok()) break;
      continue;
    }
    if (StripVolatile(*resp) != traffic.expected[shape]) ++out.mismatches;
  }
  out.seconds = MsSince(start) / 1000.0;
  return out;
}

SessionResult AskWhyNot(yask::HttpClientConnection* conn,
                        const std::string& query_body,
                        const std::vector<yask::ObjectId>& missing) {
  SessionResult out;
  const Clock::time_point start = Clock::now();
  int status = 0;
  auto query = conn->Call("POST", "/query", query_body, kDeadlineMs, &status);
  if (!query.ok() || status != 200) {
    out.error = "/query failed: " + (query.ok() ? std::to_string(status)
                                                : query.status().ToString());
    return out;
  }
  out.query_payload = *query;
  const uint64_t id = QueryIdOf(*query);
  std::string body = "{\"query_id\":" + std::to_string(id) + ",\"missing\":[";
  for (size_t i = 0; i < missing.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(missing[i]);
  }
  body += "],\"model\":\"both\"}";
  const Clock::time_point asked = Clock::now();
  auto whynot = conn->Call("POST", "/whynot", body, kDeadlineMs, &status);
  out.whynot_ms = MsSince(asked);
  if (!whynot.ok() || status != 200) {
    out.error = "/whynot failed: " +
                (whynot.ok() ? std::to_string(status) + " " + *whynot
                             : whynot.status().ToString());
    return out;
  }
  out.whynot_payload = *whynot;
  const std::string forget = "{\"query_id\":" + std::to_string(id) + "}";
  auto forgot = conn->Call("POST", "/forget", forget, kDeadlineMs, &status);
  out.session_ms = MsSince(start);
  if (!forgot.ok() || status != 200) {
    out.error = "/forget failed";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace yask_bench
