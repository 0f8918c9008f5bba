// Correctness checks made apart from the program: a brute-force ST(o, q)
// scorer following Eqns. (1)-(2) with D6 tie order, and the checks every
// why-not answer and /query result must pass against it.
//
// Scores computed here and inside the program can differ in the last bits
// (a different MBR diagonal rounding, JSON's 12 significant digits on the
// HTTP path). A rank or order that differs only among objects whose scores
// lie within `eps` of each other is counted as a near tie, not a failure.

#ifndef YASK_BENCH_REFERENCE_H_
#define YASK_BENCH_REFERENCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "inputs.h"
#include "src/query/query.h"
#include "src/storage/object_store.h"
#include "src/whynot/why_not_engine.h"

namespace yask_bench {

/// ST(o, q) = ws * (1 - SDist) + wt * TSim over a whole store, by scan.
class BruteScorer {
 public:
  explicit BruteScorer(const yask::ObjectStore& store);

  /// Scores of every object, indexed by id.
  std::vector<double> Scores(const yask::Query& query) const;

  /// The first `k` ids by score descending, id ascending (D6).
  static std::vector<yask::ObjectId> TopK(const std::vector<double>& scores,
                                          size_t k);

  const yask::ObjectStore& store() const { return *store_; }

 private:
  const yask::ObjectStore* store_;
  double diagonal_ = 0.0;
};

/// Tally of the checks of one run.
struct CheckTally {
  size_t checks = 0;
  size_t near_ties = 0;
  size_t failures = 0;
  std::vector<std::string> messages;  // First few failures.

  void Fail(const std::string& message);
  void Merge(const CheckTally& other);
};

/// The fields of a why-not answer the checks read, from either the engine's
/// WhyNotAnswer or a /whynot JSON payload.
struct AnswerView {
  struct Explanation {
    yask::ObjectId id = 0;
    size_t rank = 0;
    double score = 0.0;
  };
  struct Penalty {
    double value = 0.0;
    size_t delta_k = 0;
    double delta_w = 0.0;
    size_t delta_doc = 0;
  };
  struct Refined {
    bool present = false;
    yask::Query refined;
    size_t original_rank = 0;
    size_t refined_rank = 0;
    bool already_in_result = false;
    Penalty penalty;
  };
  std::vector<Explanation> explanations;
  Refined preference;
  Refined keyword;
  std::string recommended;  // "preference", "keyword" or "none".
  std::vector<yask::ObjectId> refined_result;
};

AnswerView ViewOf(const yask::WhyNotAnswer& answer);

/// Parses a /whynot payload for `query`; false when it is malformed.
bool ParseWhyNotPayload(const std::string& payload, const yask::Query& query,
                        const yask::Vocabulary& vocab, AnswerView* out);

/// Every check of one answer: explanation ranks, R(M, q), revival of M by
/// both refined queries, recomputed Eqn. (3)/(4) penalties (each <= lambda),
/// the recommendation, and refined_result against the brute-force top-k'.
void CheckAnswer(const BruteScorer& scorer, const Question& question,
                 const AnswerView& answer, double lambda, double eps,
                 CheckTally* tally);

/// The ids of a /query payload's results against the brute-force top-k.
void CheckQueryPayload(const BruteScorer& scorer, const yask::Query& query,
                       const std::string& payload, double eps,
                       CheckTally* tally);

}  // namespace yask_bench

#endif  // YASK_BENCH_REFERENCE_H_
