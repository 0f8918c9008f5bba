// The traced run: every layer timed from outside through its public
// functions, with the work counters each layer reports, the program's own
// stage spans collected (an installed TraceRecorder in process, GET
// /trace/<id> on the fleet) and /metrics deltas from the coordinator and
// every shard server. Spans stay in memory and are written to
// <data-dir>/trace-<workload>-<seed>.json at the end.
//
// The ladder is the same for both workloads, so every per-layer metric is
// defined on each: the engine stages, in-process 4-shard fan-out, the fleet
// behind byte-counting relays, and short /query phases on both
// coordinators.

#include <fstream>

#include "bench.h"
#include "fleet.h"
#include "src/common/trace.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/trace_json.h"
#include "src/server/yask_service.h"
#include "src/whynot/explanation.h"
#include "src/whynot/why_not_engine.h"

namespace yask_bench {
namespace {

constexpr size_t kTracedQuestions = 30;
constexpr double kTracedPhaseS = 2.0;

/// The benchmark's own spans around each call into a layer, plus the
/// program's span trees, kept in memory until the run ends.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Records one span, from `start` to now, around a call.
  void Add(const std::string& trace, const std::string& name,
           Clock::time_point start) {
    const double start_ms =
        std::chrono::duration<double, std::milli>(start - epoch_).count();
    yask::JsonValue span = yask::JsonValue::MakeObject();
    span.Set("trace", yask::JsonValue(trace));
    span.Set("name", yask::JsonValue(name));
    span.Set("start_ms", yask::JsonValue(start_ms));
    span.Set("duration_ms", yask::JsonValue(MsSince(start)));
    spans_.Append(std::move(span));
  }

  /// A span tree the program recorded (node "in-process" or the fleet's).
  void AddProgramTrace(const std::string& trace, yask::JsonValue tree) {
    yask::JsonValue entry = yask::JsonValue::MakeObject();
    entry.Set("trace", yask::JsonValue(trace));
    entry.Set("tree", std::move(tree));
    program_.Append(std::move(entry));
  }

  bool Write(const std::string& path) const {
    yask::JsonValue doc = yask::JsonValue::MakeObject();
    doc.Set("bench_spans", spans_);
    doc.Set("program_traces", program_);
    std::ofstream out(path, std::ios::trunc);
    out << doc.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  const Clock::time_point epoch_;
  yask::JsonValue spans_ = yask::JsonValue::MakeArray();
  yask::JsonValue program_ = yask::JsonValue::MakeArray();
};

/// The metrics of one exposition delta.
double Delta(const Exposition& before, const Exposition& after,
             const std::string& name, const std::string& filter = "") {
  return SumSeries(after, name, filter) - SumSeries(before, name, filter);
}

/// `name` summed over every shard server's /metrics.
double ShardTotal(const std::vector<Exposition>& shards,
                  const std::string& name) {
  double total = 0.0;
  for (const Exposition& e : shards) total += SumSeries(e, name);
  return total;
}

std::vector<Exposition> ScrapeShards(const Fleet& fleet) {
  std::vector<Exposition> out;
  for (const uint16_t port : fleet.shard_ports()) out.push_back(Scrape(port));
  return out;
}

}  // namespace

int RunTraced(const Args& args) {
  Report report;
  MetricSet& m = report.metrics;
  SpanLog spans;
  const double steal_at_start = StealSeconds();
  Log("yask-bench %s traced run, seed %llu", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed));

  // --- index: the unsharded corpus build; snapshot files for the fleet.
  Clock::time_point t = Clock::now();
  const std::unique_ptr<yask::Corpus> corpus = BuildCorpus();
  m.Add("index.build_ms", MsSince(t), "ms");
  spans.Add("setup", "index build", t);
  const yask::ObjectStore& store = corpus->store();
  std::optional<yask::ShardedCorpus> sharded;
  const std::string prefix = WriteSnapshots(args, store, &sharded);
  const BruteScorer scorer(store);
  const std::vector<Question> questions =
      MakeQuestions(store, kQuestions, kQuestionSeed);
  std::vector<size_t> picked = SeededOrder(questions.size(), args.seed);
  picked.resize(kTracedQuestions);
  const double q_count = static_cast<double>(picked.size());

  const yask::WhyNotEngine engine(*corpus);
  const yask::WhyNotOracle& oracle = engine.oracle();

  // --- query: top-k over the /query traffic shapes.
  std::vector<double> topk_ms, topk_scored, topk_popped;
  for (const yask::Query& q :
       MakeTrafficShapes(store, kTrafficShapes, kTrafficSeed)) {
    yask::TopKStats stats;
    t = Clock::now();
    engine.TopK(q, &stats);
    topk_ms.push_back(MsSince(t));
    spans.Add("query", "TopK", t);
    topk_scored.push_back(static_cast<double>(stats.objects_scored));
    topk_popped.push_back(static_cast<double>(stats.nodes_popped));
  }
  m.Add("query.topk_ms", Mean(topk_ms), "ms");
  m.Add("query.objects_scored", Mean(topk_scored), "count");
  m.Add("query.nodes_popped", Mean(topk_popped), "count");

  // --- whynot: each stage through its public function, one at a time.
  std::vector<double> explain_ms, pref_ms, kw_ms, refined_ms;
  std::vector<double> kw_scored, kw_nodes, kw_candidates, kw_resolved,
      kw_fanouts;
  std::vector<double> plane_nodes, crossings, pref_candidates, sweep_fanouts;
  yask::PreferenceAdjustOptions po;
  po.lambda = kLambda;
  yask::KeywordAdaptOptions ko;
  ko.lambda = kLambda;
  for (const size_t i : picked) {
    const Question& q = questions[i];
    const std::string trace = "question-" + std::to_string(i);
    const Clock::time_point qs = Clock::now();
    t = Clock::now();
    auto explained = yask::ExplainMissing(oracle, q.query, q.missing);
    explain_ms.push_back(MsSince(t));
    spans.Add(trace, "ExplainMissing", t);
    t = Clock::now();
    auto pref = yask::AdjustPreference(oracle, q.query, q.missing, po);
    pref_ms.push_back(MsSince(t));
    spans.Add(trace, "AdjustPreference", t);
    t = Clock::now();
    auto kw = yask::AdaptKeywords(oracle, q.query, q.missing, ko);
    kw_ms.push_back(MsSince(t));
    spans.Add(trace, "AdaptKeywords", t);
    if (!explained.ok() || !pref.ok() || !kw.ok()) {
      ++report.failed;
      report.tally.Fail("a why-not stage failed for question " +
                        std::to_string(i));
      continue;
    }
    t = Clock::now();
    oracle.TopK(pref->penalty.value <= kw->penalty.value ? pref->refined
                                                         : kw->refined);
    refined_ms.push_back(MsSince(t));
    spans.Add(trace, "TopK (refined)", t);
    spans.Add(trace, "stages", qs);
    ++report.attempted;
    kw_scored.push_back(static_cast<double>(kw->stats.objects_scored));
    kw_nodes.push_back(static_cast<double>(kw->stats.kcr_nodes_expanded));
    kw_candidates.push_back(
        static_cast<double>(kw->stats.candidates_generated));
    kw_resolved.push_back(static_cast<double>(kw->stats.candidates_resolved));
    kw_fanouts.push_back(static_cast<double>(kw->stats.probe_fanouts));
    plane_nodes.push_back(static_cast<double>(pref->stats.index_nodes_visited));
    crossings.push_back(static_cast<double>(pref->stats.crossings_found));
    pref_candidates.push_back(
        static_cast<double>(pref->stats.candidates_evaluated));
    sweep_fanouts.push_back(static_cast<double>(pref->stats.sweep_fanouts));
  }
  m.Add("whynot.explain_ms", Mean(explain_ms), "ms");
  m.Add("whynot.preference_ms", Mean(pref_ms), "ms");
  m.Add("whynot.keyword_ms", Mean(kw_ms), "ms");
  m.Add("whynot.refined_topk_ms", Mean(refined_ms), "ms");
  m.Add("whynot.keyword.objects_scored", Mean(kw_scored), "count");
  m.Add("whynot.keyword.objects_per_n",
        Mean(kw_scored) / static_cast<double>(store.size()), "ratio");
  m.Add("whynot.keyword.kcr_nodes", Mean(kw_nodes), "count");
  m.Add("whynot.keyword.candidates", Mean(kw_candidates), "count");
  m.Add("whynot.keyword.resolved", Mean(kw_resolved), "count");
  m.Add("whynot.keyword.probe_fanouts", Mean(kw_fanouts), "count");
  m.Add("whynot.preference.plane_nodes", Mean(plane_nodes), "count");
  m.Add("whynot.preference.crossings", Mean(crossings), "count");
  m.Add("whynot.preference.candidates", Mean(pref_candidates), "count");
  m.Add("whynot.preference.sweep_fanouts", Mean(sweep_fanouts), "count");

  // --- trace overhead: WhyNotEngine::Answer bare and with a TraceRecorder
  // installed, alternating per question; the traced answers are checked.
  // Then the same questions over the 4-shard in-process ShardedCorpus.
  double bare_ms = 0.0, traced_ms = 0.0, sharded_ms = 0.0;
  std::vector<Question> checked;
  std::vector<AnswerView> views;
  const yask::WhyNotEngine sharded_engine(*sharded);
  for (const size_t i : picked) {
    const Question& q = questions[i];
    const std::string trace = "question-" + std::to_string(i);
    // Alternate which arm goes first, so warm caches favour neither.
    std::optional<yask::Result<yask::WhyNotAnswer>> bare, traced;
    auto run_bare = [&] {
      t = Clock::now();
      bare.emplace(engine.Answer(q.query, q.missing));
      bare_ms += MsSince(t);
      spans.Add(trace, "WhyNotEngine::Answer (bare)", t);
    };
    auto run_traced = [&] {
      t = Clock::now();
      yask::TraceRecorder recorder(yask::MintTraceId());
      {
        yask::TraceContextScope scope(yask::TraceContext{&recorder, 0});
        yask::ScopedSpan root("bench/answer");
        traced.emplace(engine.Answer(q.query, q.missing));
      }
      std::vector<yask::TraceSpan> recorded = recorder.TakeSpans();
      traced_ms += MsSince(t);
      spans.Add(trace, "WhyNotEngine::Answer (traced)", t);
      spans.AddProgramTrace(trace,
                            yask::TraceSpansToJson(recorded, "in-process"));
    };
    if (i % 2 == 0) {
      run_bare();
      run_traced();
    } else {
      run_traced();
      run_bare();
    }

    t = Clock::now();
    auto fanned = sharded_engine.Answer(q.query, q.missing);
    sharded_ms += MsSince(t);
    spans.Add(trace, "WhyNotEngine::Answer (4 shards, in process)", t);

    report.attempted += 3;
    if (!bare->ok() || !traced->ok() || !fanned.ok()) {
      ++report.failed;
      continue;
    }
    checked.push_back(q);
    views.push_back(ViewOf(**traced));
    checked.push_back(q);
    views.push_back(ViewOf(*fanned));
  }
  m.Add("trace.overhead_pct", (traced_ms - bare_ms) / bare_ms * 100.0, "%");
  m.Add("corpus.inproc_fanout_ms", (sharded_ms - bare_ms) / q_count, "ms");
  CheckAll(scorer, checked, views, kEngineEps, &report.tally);

  // --- the fleet, every coordinator-to-shard byte through a relay.
  double load_ms = 0.0;
  t = Clock::now();
  auto booted = Fleet::Boot(prefix, kShards, /*relay=*/true, &load_ms);
  if (!booted.ok()) {
    Log("fleet boot failed: %s", booted.status().ToString().c_str());
    return 1;
  }
  spans.Add("setup", "fleet boot", t);
  std::unique_ptr<Fleet> fleet = std::move(booted).value();
  m.Add("snapshot.load_ms", load_ms, "ms");
  yask::YaskService reference(*corpus);
  if (!reference.Start().ok()) return 1;
  std::vector<std::string> bodies;
  for (const Question& q : questions) {
    bodies.push_back(QueryBody(q.query, store.vocab()));
  }

  Exposition coord0 = Scrape(fleet->plain_port());
  const std::vector<Exposition> shards0 = ScrapeShards(*fleet);
  uint64_t bytes0 = fleet->relay_bytes();
  t = Clock::now();
  const SessionRound round =
      AskWhyNotRound(fleet->plain_port(), bodies, questions, picked, &report);
  spans.Add("fleet", "why-not sessions", t);
  Exposition coord1 = Scrape(fleet->plain_port());
  const std::vector<Exposition> shards1 = ScrapeShards(*fleet);
  uint64_t bytes1 = fleet->relay_bytes();
  const double whynot_client_ms = Mean(round.whynot_ms);
  m.Add("corpus.rpcs_per_question",
        Delta(coord0, coord1, "yask_replica_requests_total") / q_count,
        "count");
  m.Add("corpus.rpc_ms",
        Delta(coord0, coord1, "yask_replica_rpc_latency_ms_sum") /
            Delta(coord0, coord1, "yask_replica_rpc_latency_ms_count"),
        "ms");
  m.Add("corpus.sweep_batch_events",
        SumSeries(coord1, "yask_sweep_batch_events") / kShards, "count");
  const double whynot_handler_ms =
      Delta(coord0, coord1, "yask_http_request_ms_sum", "\"/whynot\"") /
      Delta(coord0, coord1, "yask_http_request_ms_count", "\"/whynot\"");
  m.Add("server.whynot_handler_ms", whynot_handler_ms, "ms");
  m.Add("server.shard_busy_ms",
        (ShardTotal(shards1, "yask_shard_request_ms_sum") -
         ShardTotal(shards0, "yask_shard_request_ms_sum")) / q_count,
        "ms");
  m.Add("server.shard_requests",
        (ShardTotal(shards1, "yask_shard_requests_total") -
         ShardTotal(shards0, "yask_shard_requests_total")) / q_count,
        "count");
  m.Add("server.wire_bytes_per_question",
        static_cast<double>(bytes1 - bytes0) / q_count, "bytes");
  Log("fleet why-not: client %.2f ms/question, /whynot handler %.2f ms",
      whynot_client_ms, whynot_handler_ms);

  // The program's stitched span trees of the traced sessions.
  int status = 0;
  auto log = yask::HttpFetch(fleet->plain_port(), "GET", "/log", "", &status);
  if (log.ok() && status == 200) {
    auto parsed = yask::JsonValue::Parse(*log);
    if (parsed.ok()) {
      for (const yask::JsonValue& e : parsed->Get("entries").array_items()) {
        if (e.Get("kind").as_string() != "whynot") continue;
        const std::string id = e.Get("trace_id").as_string();
        auto tree = yask::HttpFetch(fleet->plain_port(), "GET", "/trace/" + id);
        if (!tree.ok()) continue;
        auto tree_json = yask::JsonValue::Parse(*tree);
        if (tree_json.ok()) spans.AddProgramTrace(id, *tree_json);
      }
    }
  }

  // --- /query on the relayed fleet: work per request and the result cache.
  const QueryTraffic traffic =
      MakeTraffic(store, reference.port(), scorer, &report.tally);
  CountPhase(WarmUp(fleet->plain_port(), traffic), &report);
  CountPhase(WarmUp(fleet->cached_port(), traffic), &report);
  coord0 = Scrape(fleet->plain_port());
  bytes0 = fleet->relay_bytes();
  t = Clock::now();
  const PhaseResult closed = RunQueryPhase(
      fleet->plain_port(), traffic, kConns, kTracedPhaseS, 0.0, args.seed);
  spans.Add("fleet", "/query closed loop, plain", t);
  coord1 = Scrape(fleet->plain_port());
  bytes1 = fleet->relay_bytes();
  const double requests = static_cast<double>(closed.requests);
  const double query_handler_ms =
      Delta(coord0, coord1, "yask_http_request_ms_sum", "\"/query\"") /
      Delta(coord0, coord1, "yask_http_request_ms_count", "\"/query\"");
  m.Add("corpus.rpcs_per_query",
        Delta(coord0, coord1, "yask_replica_requests_total") / requests,
        "count");
  m.Add("server.query_handler_ms", query_handler_ms, "ms");
  m.Add("server.transport_ms", Mean(closed.latency_ms) - query_handler_ms,
        "ms");
  m.Add("server.wire_bytes_per_query",
        static_cast<double>(bytes1 - bytes0) / requests, "bytes");

  const Exposition cache0 = Scrape(fleet->cached_port());
  t = Clock::now();
  const PhaseResult cached = RunQueryPhase(
      fleet->cached_port(), traffic, kConns, kTracedPhaseS, 0.0, args.seed + 1);
  spans.Add("fleet", "/query closed loop, cached", t);
  const Exposition cache1 = Scrape(fleet->cached_port());
  const double hits = Delta(cache0, cache1, "yask_result_cache_hits_total");
  const double misses = Delta(cache0, cache1, "yask_result_cache_misses_total");
  m.Add("server.result_cache_lookups", hits + misses, "count");
  m.Add("server.result_cache_hit_ratio", hits / (hits + misses), "ratio");
  m.Add("server.coalesced_requests",
        Delta(cache0, cache1, "yask_coalesced_requests_total"), "count");
  CountPhase(closed, &report);
  CountPhase(cached, &report);
  CheckSessions(round, reference.port(), store, scorer, bodies, questions,
                picked, &report.tally);
  fleet.reset();

  // --- wall clock on the workload's own target, no relays and no tracing:
  // all the questions, then the /query phases. These figures are the ones
  // the untraced run logs but does not bound.
  const std::vector<size_t> order = SeededOrder(questions.size(), args.seed);
  t = Clock::now();
  if (args.workload == "engine-whynot") {
    const AnswerRound all = AnswerAll(engine, questions, order, &report);
    AddWallWhyNot(all.latency_ms, all.seconds, &m);
    CheckAll(scorer, questions, all.answers, kEngineEps, &report.tally);
    yask::YaskServiceOptions cached_options;
    cached_options.enable_result_cache = true;
    yask::YaskService cached_service(*corpus, cached_options);
    if (!cached_service.Start().ok()) return 1;
    WallQueryPhases(reference.port(), cached_service.port(), traffic,
                    args.seed, &report);
    cached_service.Stop();
  } else {
    auto direct = Fleet::Boot(prefix, kShards, /*relay=*/false, &load_ms);
    if (!direct.ok()) return 1;
    const SessionRound all = AskWhyNotRound((*direct)->plain_port(), bodies,
                                            questions, order, &report);
    AddWallWhyNot(all.whynot_ms, all.seconds, &m);
    CheckSessions(all, reference.port(), store, scorer, bodies, questions,
                  order, &report.tally);
    WallQueryPhases((*direct)->plain_port(), (*direct)->cached_port(), traffic,
                    args.seed, &report);
  }
  spans.Add(args.workload, "wall-clock questions and /query phases", t);
  reference.Stop();

  m.Add("program.src_lines", static_cast<double>(CountSourceLines("src")),
        "lines");
  const std::string path = args.data_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (!spans.Write(path)) Log("cannot write %s", path.c_str());
  Log("spans written to %s", path.c_str());
  Log("host steal during the run: %.2f s of vCPU time",
      StealSeconds() - steal_at_start);
  report.Print();
  return 0;
}

}  // namespace yask_bench
