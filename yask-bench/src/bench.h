// Shared pieces of the yask-bench runs: the settings every run uses, the
// result report, and the set-up and check steps the untraced workloads
// (workloads.cc), the traced run (traced.cc) and verify mode (verify.cc)
// have in common.

#ifndef YASK_BENCH_BENCH_H_
#define YASK_BENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "load.h"
#include "reference.h"
#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/whynot/why_not_engine.h"

namespace yask_bench {

inline constexpr size_t kObjects = 100000;
inline constexpr size_t kQuestions = 100;
inline constexpr uint64_t kQuestionSeed = 20160901 + 12;
inline constexpr size_t kTrafficShapes = 64;
inline constexpr uint64_t kTrafficSeed = 20160901 + 7;
inline constexpr uint32_t kShards = 4;
inline constexpr size_t kConns = 4;  // Client connections and threads.
inline constexpr double kOpenRate = 400.0;  // /query req/s in the open loop.
inline constexpr double kLambda = 0.5;
inline constexpr double kEngineEps = 1e-12;  // Full-precision answers.
inline constexpr double kPayloadEps = 1e-9;  // JSON prints 12 digits.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string data_dir = ".bench_build/yask-bench-data";
};

/// What one run reports: the result line and a readable summary.
struct Report {
  MetricSet metrics;
  size_t attempted = 0;
  size_t failed = 0;
  CheckTally tally;

  void Print() const;
};

/// Runs `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Brute-force checks of `answers[i]` for `questions[i]`, on kConns threads.
void CheckAll(const BruteScorer& scorer, const std::vector<Question>& questions,
              const std::vector<AnswerView>& answers, double eps,
              CheckTally* tally);

/// The unsharded corpus of the benchmark dataset, KcR-tree included.
std::unique_ptr<yask::Corpus> BuildCorpus(size_t n = kObjects);

/// Partitions `store` into the 4-shard grid layout and writes one snapshot
/// file per shard under `args.data_dir`; returns the file prefix. The
/// partitioned corpus is handed back through `keep` when non-null.
std::string WriteSnapshots(const Args& args, const yask::ObjectStore& store,
                           std::optional<yask::ShardedCorpus>* keep);

/// The /query traffic, each shape's expected bytes taken from the unsharded
/// service on `reference_port` and checked against the brute-force top-k.
QueryTraffic MakeTraffic(const yask::ObjectStore& store,
                         uint16_t reference_port, const BruteScorer& scorer,
                         CheckTally* tally);

/// One round of the questions through an in-process engine.
struct AnswerRound {
  std::vector<AnswerView> answers;  // Indexed by question.
  std::vector<double> latency_ms;   // In the order asked.
  double seconds = 0.0;
  double cpu_ms = 0.0;  // CPU time of the whole process while answering.
};
AnswerRound AnswerAll(const yask::WhyNotEngine& engine,
                      const std::vector<Question>& questions,
                      const std::vector<size_t>& order, Report* report);

/// Why-not sessions: the measured round against a coordinator, then the
/// checks of every payload.
struct SessionRound {
  std::vector<SessionResult> sessions;  // Indexed by question.
  std::vector<double> whynot_ms;        // In the order asked.
  double seconds = 0.0;                 // Sum of whole-session times.
  double server_cpu_ms = 0.0;  // Process CPU minus the client thread's.
};
SessionRound AskWhyNotRound(uint16_t port,
                            const std::vector<std::string>& bodies,
                            const std::vector<Question>& questions,
                            const std::vector<size_t>& order, Report* report);

/// Checks each session of `round` byte for byte against the unsharded
/// service on `reference_port` (apart from query_id and response_millis)
/// and against the brute-force scorer.
void CheckSessions(const SessionRound& round, uint16_t reference_port,
                   const yask::ObjectStore& store, const BruteScorer& scorer,
                   const std::vector<std::string>& bodies,
                   const std::vector<Question>& questions,
                   const std::vector<size_t>& order, CheckTally* tally);

/// The wall-clock why-not figures of a round: whynot_qps, whynot_p50_ms
/// and whynot_p90_ms.
void AddWallWhyNot(const std::vector<double>& latency_ms, double seconds,
                   MetricSet* metrics);

/// Wall-clock /query figures: 2 s closed loops against the plain and the
/// caching service (query_rps, cached_query_rps), then 1,000 open-loop
/// requests at kOpenRate against the plain one, timed from when each was
/// due (query_p50_ms, query_p99_ms, load.generator_late_ms).
void WallQueryPhases(uint16_t plain, uint16_t cached,
                     const QueryTraffic& traffic, uint64_t seed,
                     Report* report);

/// Counts a /query phase's requests, failures and payload mismatches.
void CountPhase(const PhaseResult& r, Report* report);

/// Non-blank lines of the files under `dir` (the program's size).
size_t CountSourceLines(const std::string& dir);

int RunWorkload(const Args& args);
int RunTraced(const Args& args);
int RunVerify();

}  // namespace yask_bench

#endif  // YASK_BENCH_BENCH_H_
