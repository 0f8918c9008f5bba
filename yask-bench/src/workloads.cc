// The untraced runs of the two workloads (tracing off), and the set-up and
// check steps shared with the traced run.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "fleet.h"
#include "src/corpus/shard_router.h"
#include "src/server/http_server.h"
#include "src/server/yask_service.h"
#include "src/whynot/why_not_engine.h"

namespace yask_bench {

void Report::Print() const {
  Log("checks: %zu run, %zu near ties, %zu failures", tally.checks,
      tally.near_ties, tally.failures);
  for (const std::string& m : tally.messages) Log("  FAILED: %s", m.c_str());
  Log("operations: %zu attempted, %zu failed", attempted, failed);
  metrics.LogAll();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      tally.failures == 0 ? "true" : "false", attempted, failed,
      metrics.ToJson().c_str());
  std::fflush(stdout);
}

void CheckAll(const BruteScorer& scorer, const std::vector<Question>& questions,
              const std::vector<AnswerView>& answers, double eps,
              CheckTally* tally) {
  std::vector<CheckTally> parts(questions.size());
  ParallelFor(questions.size(), kConns, [&](size_t i) {
    CheckAnswer(scorer, questions[i], answers[i], kLambda, eps, &parts[i]);
  });
  for (const CheckTally& t : parts) tally->Merge(t);
}

std::unique_ptr<yask::Corpus> BuildCorpus(size_t n) {
  return std::make_unique<yask::Corpus>(
      yask::CorpusBuilder().Build(yask::GenerateDataset(BenchDatasetSpec(n))));
}

std::string WriteSnapshots(const Args& args, const yask::ObjectStore& store,
                           std::optional<yask::ShardedCorpus>* keep) {
  std::filesystem::create_directories(args.data_dir);
  const std::string prefix =
      args.data_dir + "/fleet-n" + std::to_string(store.size());
  yask::ShardedCorpus sharded = yask::ShardedCorpus::Partition(
      store, yask::GridShardRouter::Fit(store, kShards));
  auto written = sharded.Save(prefix);
  if (!written.ok()) {
    Log("cannot write shard snapshots: %s",
        written.status().ToString().c_str());
    std::exit(1);
  }
  if (keep != nullptr) keep->emplace(std::move(sharded));
  return prefix;
}

QueryTraffic MakeTraffic(const yask::ObjectStore& store,
                         uint16_t reference_port, const BruteScorer& scorer,
                         CheckTally* tally) {
  QueryTraffic traffic;
  const std::vector<yask::Query> shapes =
      MakeTrafficShapes(store, kTrafficShapes, kTrafficSeed);
  traffic.popularity = yask::ZipfSampler(shapes.size(), 1.0);
  for (const yask::Query& q : shapes) {
    traffic.bodies.push_back(QueryBody(q, store.vocab()));
    int status = 0;
    auto payload = yask::HttpFetch(reference_port, "POST", "/query",
                                   traffic.bodies.back(), &status);
    if (!payload.ok() || status != 200) {
      Log("reference /query failed");
      std::exit(1);
    }
    CheckQueryPayload(scorer, q, *payload, kEngineEps, tally);
    traffic.expected.push_back(StripVolatile(*payload));
  }
  return traffic;
}

AnswerRound AnswerAll(const yask::WhyNotEngine& engine,
                      const std::vector<Question>& questions,
                      const std::vector<size_t>& order, Report* report) {
  AnswerRound round;
  round.answers.resize(questions.size());
  const Clock::time_point start = Clock::now();
  for (const size_t i : order) {
    const double cpu = ProcessCpuMs();
    const Clock::time_point asked = Clock::now();
    auto answer = engine.Answer(questions[i].query, questions[i].missing);
    round.latency_ms.push_back(MsSince(asked));
    round.cpu_ms += ProcessCpuMs() - cpu;
    ++report->attempted;
    if (!answer.ok()) {
      ++report->failed;
      Log("why-not failed: %s", answer.status().ToString().c_str());
    } else {
      round.answers[i] = ViewOf(*answer);
    }
  }
  round.seconds = MsSince(start) / 1000.0;
  return round;
}

SessionRound AskWhyNotRound(uint16_t port,
                            const std::vector<std::string>& bodies,
                            const std::vector<Question>& questions,
                            const std::vector<size_t>& order, Report* report) {
  SessionRound round;
  round.sessions.resize(questions.size());
  yask::HttpClientConnection conn;
  if (!conn.Connect("127.0.0.1", port, 2000).ok()) {
    Log("cannot connect to the coordinator");
    std::exit(1);
  }
  for (const size_t i : order) {
    const double cpu = ProcessCpuMs();
    const double client_cpu = ThreadCpuMs();
    SessionResult s = AskWhyNot(&conn, bodies[i], questions[i].missing);
    round.server_cpu_ms +=
        (ProcessCpuMs() - cpu) - (ThreadCpuMs() - client_cpu);
    ++report->attempted;
    if (!s.ok) {
      ++report->failed;
      Log("why-not session failed: %s", s.error.c_str());
      conn.Connect("127.0.0.1", port, 2000);
    }
    round.whynot_ms.push_back(s.whynot_ms);
    round.seconds += s.session_ms / 1000.0;
    round.sessions[i] = std::move(s);
  }
  return round;
}

void CheckSessions(const SessionRound& round, uint16_t reference_port,
                   const yask::ObjectStore& store, const BruteScorer& scorer,
                   const std::vector<std::string>& bodies,
                   const std::vector<Question>& questions,
                   const std::vector<size_t>& order, CheckTally* tally) {
  // The unsharded service's payloads, on kConns connections (untimed).
  std::vector<SessionResult> reference(questions.size());
  ParallelFor(order.size(), kConns, [&](size_t j) {
    const size_t i = order[j];
    yask::HttpClientConnection conn;
    if (conn.Connect("127.0.0.1", reference_port, 2000).ok()) {
      reference[i] = AskWhyNot(&conn, bodies[i], questions[i].missing);
    }
  });
  std::vector<Question> checked;
  std::vector<AnswerView> views;
  for (const size_t i : order) {
    const SessionResult& got = round.sessions[i];
    const SessionResult& want = reference[i];
    if (!got.ok) continue;
    tally->checks += 2;
    if (!want.ok) {
      tally->Fail("reference session failed: " + want.error);
      continue;
    }
    if (StripVolatile(got.query_payload) != StripVolatile(want.query_payload)) {
      tally->Fail("fleet /query payload differs from the unsharded service");
    }
    if (StripVolatile(got.whynot_payload) !=
        StripVolatile(want.whynot_payload)) {
      tally->Fail("fleet /whynot payload differs from the unsharded service");
    }
    CheckQueryPayload(scorer, questions[i].query, got.query_payload,
                      kPayloadEps, tally);
    AnswerView view;
    ++tally->checks;
    if (!ParseWhyNotPayload(got.whynot_payload, questions[i].query,
                            store.vocab(), &view)) {
      tally->Fail("malformed /whynot payload");
      continue;
    }
    checked.push_back(questions[i]);
    views.push_back(std::move(view));
  }
  CheckAll(scorer, checked, views, kPayloadEps, tally);
}

void AddWallWhyNot(const std::vector<double>& latency_ms, double seconds,
                   MetricSet* metrics) {
  metrics->Add("whynot_qps", static_cast<double>(latency_ms.size()) / seconds,
               "questions/s");
  metrics->Add("whynot_p50_ms", Quantile(latency_ms, 0.5), "ms");
  metrics->Add("whynot_p90_ms", Quantile(latency_ms, 0.9), "ms");
}

void CountPhase(const PhaseResult& r, Report* report) {
  report->attempted += r.requests;
  report->failed += r.failed;
  report->tally.checks += r.requests;
  for (size_t i = 0; i < r.mismatches; ++i) {
    report->tally.Fail("/query payload differs from the unsharded service");
  }
}

void WallQueryPhases(uint16_t plain, uint16_t cached,
                     const QueryTraffic& traffic, uint64_t seed,
                     Report* report) {
  CountPhase(WarmUp(plain, traffic), report);
  CountPhase(WarmUp(cached, traffic), report);
  const PhaseResult closed =
      RunQueryPhase(plain, traffic, kConns, 2.0, 0.0, seed);
  const PhaseResult closed_cached =
      RunQueryPhase(cached, traffic, kConns, 2.0, 0.0, seed + 1);
  const PhaseResult open = RunQueryPhase(
      plain, traffic, kConns, 1000.0 / kOpenRate, kOpenRate, seed + 2);
  for (const PhaseResult* r : {&closed, &closed_cached, &open}) {
    CountPhase(*r, report);
  }
  report->metrics.Add("query_rps", closed.rps(), "req/s");
  report->metrics.Add("cached_query_rps", closed_cached.rps(), "req/s");
  report->metrics.Add("query_p50_ms", Quantile(open.latency_ms, 0.5), "ms");
  report->metrics.Add("query_p99_ms", Quantile(open.latency_ms, 0.99), "ms");
  report->metrics.Add("load.generator_late_ms", Quantile(open.late_ms, 0.99),
                      "ms");
}

size_t CountSourceLines(const std::string& dir) {
  size_t lines = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) {
      if (line.find_first_not_of(" \t\r") != std::string::npos) ++lines;
    }
  }
  return lines;
}

namespace {

constexpr int kSetupReps = 9;

// One /query window: a closed loop against the plain coordinator, then one
// against the caching coordinator.
constexpr double kClosedS = 1.0;
constexpr double kClosedCachedS = 0.5;

/// A warm-up, then `windows` windows of /query traffic. The metrics
/// are server-side CPU per request (every thread of this process but the
/// clients'), the median over the windows: on a host whose hypervisor
/// takes CPU away in bursts, wall-clock capacity moves with the neighbours
/// while CPU per request does not. The wall-clock figures are logged.
void QueryWindows(uint16_t plain, uint16_t cached, const QueryTraffic& traffic,
                  uint64_t seed, size_t windows, Report* report) {
  CountPhase(WarmUp(plain, traffic), report);
  CountPhase(WarmUp(cached, traffic), report);
  std::vector<double> cpu, cached_cpu, rps, cached_rps;
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t s = seed * 64 + w * 2;
    const double steal = StealSeconds();
    const PhaseResult closed =
        RunQueryPhase(plain, traffic, kConns, kClosedS, 0.0, s);
    const PhaseResult closed_cached =
        RunQueryPhase(cached, traffic, kConns, kClosedCachedS, 0.0, s + 1);
    CountPhase(closed, report);
    CountPhase(closed_cached, report);
    cpu.push_back(closed.server_cpu_ms_per_request());
    cached_cpu.push_back(closed_cached.server_cpu_ms_per_request());
    rps.push_back(closed.rps());
    cached_rps.push_back(closed_cached.rps());
    Log("  /query window %zu: plain %.1f req/s at %.4f server CPU ms/req, "
        "cached %.1f req/s at %.4f; host steal %.2f s",
        w, rps.back(), cpu.back(), cached_rps.back(), cached_cpu.back(),
        StealSeconds() - steal);
  }
  Log("/query (%zu connections, closed loop): plain %.1f req/s, cached %.1f "
      "req/s (medians of %zu windows)",
      kConns, Median(rps), Median(cached_rps), windows);
  report->metrics.Add("query_cpu_ms", Median(cpu), "ms");
  report->metrics.Add("cached_query_cpu_ms", Median(cached_cpu), "ms");
}

size_t WindowsFor(double seconds) {
  return static_cast<size_t>(std::max(3L, std::lround(seconds / 4.0)));
}

/// Adds whynot_cpu_ms, the CPU per question; logs the wall-clock figures.
void AddWhyNotMetrics(const std::vector<double>& latency_ms, double seconds,
                      double cpu_ms, Report* report) {
  Log("why-not: %zu questions in %.2f s (%.3f/s), p50 %.2f ms, p90 %.2f ms; "
      "%.2f CPU ms per question",
      latency_ms.size(), seconds,
      static_cast<double>(latency_ms.size()) / seconds,
      Quantile(latency_ms, 0.5), Quantile(latency_ms, 0.9),
      cpu_ms / static_cast<double>(latency_ms.size()));
  report->metrics.Add("whynot_cpu_ms",
                      cpu_ms / static_cast<double>(latency_ms.size()), "ms");
}

/// engine-whynot: the questions through an in-process WhyNotEngine over one
/// unsharded Corpus; /query traffic through the in-process unsharded
/// service over loopback HTTP.
void RunEngineWhyNot(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<yask::Corpus> corpus;
  for (int r = 0; r < kSetupReps; ++r) {
    corpus.reset();
    const Clock::time_point start = Clock::now();
    corpus = BuildCorpus();
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  const yask::ObjectStore& store = corpus->store();
  const BruteScorer scorer(store);
  const std::vector<Question> questions =
      MakeQuestions(store, kQuestions, kQuestionSeed);
  const yask::WhyNotEngine engine(*corpus);

  // One whole round of the question set, in seeded order.
  const AnswerRound round = AnswerAll(
      engine, questions, SeededOrder(questions.size(), args.seed), report);
  AddWhyNotMetrics(round.latency_ms, round.seconds, round.cpu_ms, report);

  yask::YaskService plain(*corpus);
  yask::YaskServiceOptions cached_options;
  cached_options.enable_result_cache = true;
  yask::YaskService cached(*corpus, cached_options);
  if (!plain.Start().ok() || !cached.Start().ok()) std::exit(1);
  const QueryTraffic traffic =
      MakeTraffic(store, plain.port(), scorer, &report->tally);
  QueryWindows(plain.port(), cached.port(), traffic, args.seed,
               WindowsFor(args.seconds), report);
  plain.Stop();
  cached.Stop();

  CheckAll(scorer, questions, round.answers, kEngineEps, &report->tally);
  report->metrics.Add("setup_s", Median(setup_s), "s");
  report->metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// fleet-whynot: the same questions as HTTP sessions against the
/// coordinator over 4 loopback shard servers, then the production-shaped
/// /query traffic against the plain and the caching coordinator.
void RunFleetWhyNot(const Args& args, Report* report) {
  const std::unique_ptr<yask::Corpus> corpus = BuildCorpus();
  const yask::ObjectStore& store = corpus->store();
  const std::string prefix = WriteSnapshots(args, store, nullptr);

  // Set-up: snapshot load, shard servers, coordinator connect.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int r = 0; r < kSetupReps; ++r) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    double load_ms = 0.0;
    auto booted = Fleet::Boot(prefix, kShards, /*relay=*/false, &load_ms);
    if (!booted.ok()) {
      Log("fleet boot failed: %s", booted.status().ToString().c_str());
      std::exit(1);
    }
    fleet = std::move(booted).value();
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  const BruteScorer scorer(store);
  yask::YaskService reference(*corpus);
  if (!reference.Start().ok()) std::exit(1);
  const std::vector<Question> questions =
      MakeQuestions(store, kQuestions, kQuestionSeed);
  std::vector<std::string> bodies;
  for (const Question& q : questions) {
    bodies.push_back(QueryBody(q.query, store.vocab()));
  }
  const std::vector<size_t> order = SeededOrder(questions.size(), args.seed);

  const SessionRound round = AskWhyNotRound(fleet->plain_port(), bodies,
                                            questions, order, report);
  AddWhyNotMetrics(round.whynot_ms, round.seconds, round.server_cpu_ms,
                   report);

  const QueryTraffic traffic =
      MakeTraffic(store, reference.port(), scorer, &report->tally);
  QueryWindows(fleet->plain_port(), fleet->cached_port(), traffic, args.seed,
               WindowsFor(args.seconds), report);

  CheckSessions(round, reference.port(), store, scorer, bodies, questions,
                order, &report->tally);
  reference.Stop();
  report->metrics.Add("setup_s", Median(setup_s), "s");
  report->metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

int RunWorkload(const Args& args) {
  Report report;
  const double steal_at_start = StealSeconds();
  Log("yask-bench %s, seed %llu, %.0f s", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds);
  if (args.workload == "engine-whynot") {
    RunEngineWhyNot(args, &report);
  } else {
    RunFleetWhyNot(args, &report);
  }
  Log("host steal during the run: %.2f s of vCPU time",
      StealSeconds() - steal_at_start);
  report.Print();
  return 0;
}

}  // namespace yask_bench
