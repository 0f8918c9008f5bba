// Verify mode: on a small corpus, every question's default refinements
// (PrefAdjustMode::kOptimized, KwAdaptMode::kBoundAndPrune) against the
// brute-force kBasic references, with each refined query's revival of M
// re-checked by ComputeRankScan and every answer by the benchmark's own
// brute-force scorer. Small because kBasic takes seconds per question at
// n = 100k.

#include "bench.h"
#include "src/query/ranking.h"
#include "src/whynot/why_not_engine.h"

namespace yask_bench {
namespace {

constexpr size_t kVerifyObjects = 20000;
constexpr size_t kVerifyQuestions = 40;

/// Both penalties must match; a different refined query at the same penalty
/// is a tie between optimal answers, counted but allowed.
void Compare(const char* model, double fast, double basic, bool same_query,
             size_t question, CheckTally* tally) {
  ++tally->checks;
  if (fast != basic) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "question %zu: %s penalty %.17g, kBasic reference %.17g",
                  question, model, fast, basic);
    tally->Fail(buf);
  } else if (!same_query) {
    ++tally->near_ties;
  }
}

void CheckRevival(const yask::ObjectStore& store, const yask::Query& refined,
                  const Question& q, size_t question, CheckTally* tally) {
  for (const yask::ObjectId m : q.missing) {
    ++tally->checks;
    const size_t rank = yask::ComputeRankScan(store, refined, m);
    if (rank > refined.k) {
      tally->Fail("question " + std::to_string(question) + ": object " +
                  std::to_string(m) + " at rank " + std::to_string(rank) +
                  " > k' = " + std::to_string(refined.k));
    }
  }
}

}  // namespace

int RunVerify() {
  Report report;
  const std::unique_ptr<yask::Corpus> corpus = BuildCorpus(kVerifyObjects);
  const yask::ObjectStore& store = corpus->store();
  const BruteScorer scorer(store);
  const std::vector<Question> questions =
      MakeQuestions(store, kVerifyQuestions, kQuestionSeed);
  const yask::WhyNotEngine engine(*corpus);
  yask::WhyNotOptions basic;
  basic.pref_mode = yask::PrefAdjustMode::kBasic;
  basic.kw_mode = yask::KwAdaptMode::kBasic;

  std::vector<double> fast_ms, basic_ms;
  std::vector<Question> checked;
  std::vector<AnswerView> views;
  for (size_t i = 0; i < questions.size(); ++i) {
    const Question& q = questions[i];
    Clock::time_point t = Clock::now();
    auto fast = engine.Answer(q.query, q.missing);
    fast_ms.push_back(MsSince(t));
    t = Clock::now();
    auto reference = engine.Answer(q.query, q.missing, basic);
    basic_ms.push_back(MsSince(t));
    report.attempted += 2;
    if (!fast.ok() || !reference.ok()) {
      ++report.failed;
      report.tally.Fail("question " + std::to_string(i) + " failed");
      continue;
    }
    const yask::RefinedPreferenceQuery& fp = *fast->preference;
    const yask::RefinedPreferenceQuery& bp = *reference->preference;
    Compare("preference", fp.penalty.value, bp.penalty.value,
            fp.refined.w == bp.refined.w && fp.refined.k == bp.refined.k, i,
            &report.tally);
    const yask::RefinedKeywordQuery& fk = *fast->keyword;
    const yask::RefinedKeywordQuery& bk = *reference->keyword;
    Compare("keyword", fk.penalty.value, bk.penalty.value,
            fk.refined.doc == bk.refined.doc && fk.refined.k == bk.refined.k,
            i, &report.tally);
    for (const yask::Query* refined :
         {&fp.refined, &bp.refined, &fk.refined, &bk.refined}) {
      CheckRevival(store, *refined, q, i, &report.tally);
    }
    checked.push_back(q);
    views.push_back(ViewOf(*fast));
    checked.push_back(q);
    views.push_back(ViewOf(*reference));
  }
  CheckAll(scorer, checked, views, kEngineEps, &report.tally);
  Log("verify: n=%zu, %zu questions; default engine %.1f ms/question, kBasic "
      "%.1f ms/question",
      store.size(), questions.size(), Mean(fast_ms), Mean(basic_ms));
  report.metrics.Add("default_ms", Mean(fast_ms), "ms");
  report.metrics.Add("basic_ms", Mean(basic_ms), "ms");
  report.Print();
  return report.tally.failures == 0 && report.failed == 0 ? 0 : 1;
}

}  // namespace yask_bench
