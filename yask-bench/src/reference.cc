#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/text.h"
#include "src/server/json.h"

namespace yask_bench {
namespace {

/// |a ∩ b| of two sorted, duplicate-free id lists.
size_t Common(const std::vector<yask::TermId>& a,
              const std::vector<yask::TermId>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

/// A 1-based rank: the exact D6 rank under these scores, and the range it
/// may take when scores within `eps` of the target's are taken as ties.
struct RankRange {
  size_t exact = 0;
  size_t lo = 0;
  size_t hi = 0;
};

RankRange RankOf(const std::vector<double>& scores, yask::ObjectId target,
                 double eps) {
  const double t = scores[target];
  size_t above = 0, clearly_above = 0, maybe_above = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i == target) continue;
    const double s = scores[i];
    if (s > t || (s == t && i < target)) ++above;
    if (s > t + eps) ++clearly_above;
    if (s >= t - eps) ++maybe_above;
  }
  return RankRange{above + 1, clearly_above + 1, maybe_above + 1};
}

std::string Describe(const Question& q) {
  std::string s = "query (" + std::to_string(q.query.loc.x) + ", " +
                  std::to_string(q.query.loc.y) + ") k=" +
                  std::to_string(q.query.k) + " M={";
  for (const yask::ObjectId m : q.missing) s += std::to_string(m) + " ";
  return s + "}";
}

/// R(M, q') under `scores`: the lowest rank of any missing object.
RankRange LowestRank(const std::vector<double>& scores,
                     const std::vector<yask::ObjectId>& missing, double eps) {
  RankRange r;
  for (const yask::ObjectId m : missing) {
    const RankRange one = RankOf(scores, m, eps);
    r.exact = std::max(r.exact, one.exact);
    r.lo = std::max(r.lo, one.lo);
    r.hi = std::max(r.hi, one.hi);
  }
  return r;
}

/// Compares a reported rank with the brute-force one.
void CheckRank(size_t reported, const RankRange& brute, const char* what,
               const Question& q, CheckTally* tally) {
  ++tally->checks;
  if (reported == brute.exact) return;
  if (reported >= brute.lo && reported <= brute.hi) {
    ++tally->near_ties;
    return;
  }
  tally->Fail(std::string(what) + ": reported " + std::to_string(reported) +
              ", brute force " + std::to_string(brute.exact) + " for " +
              Describe(q));
}

void CheckClose(double reported, double expected, double tol,
                const char* what, const Question& q, CheckTally* tally) {
  ++tally->checks;
  if (std::fabs(reported - expected) <= tol) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: reported %.17g, recomputed %.17g for ",
                what, reported, expected);
  tally->Fail(buf + Describe(q));
}

/// `ids` must be the brute-force top-|ids| in order, up to near ties.
void CheckOrder(const std::vector<double>& scores,
                const std::vector<yask::ObjectId>& ids, size_t k, double eps,
                const char* what, const Question& q, CheckTally* tally) {
  const std::vector<yask::ObjectId> expected = BruteScorer::TopK(scores, k);
  ++tally->checks;
  if (ids == expected) return;
  if (ids.size() != expected.size()) {
    tally->Fail(std::string(what) + ": " + std::to_string(ids.size()) +
                " results, brute force has " +
                std::to_string(expected.size()) + " for " + Describe(q));
    return;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= scores.size() ||
        std::fabs(scores[ids[i]] - scores[expected[i]]) > eps) {
      tally->Fail(std::string(what) + ": position " + std::to_string(i + 1) +
                  " holds " + std::to_string(ids[i]) + ", brute force " +
                  std::to_string(expected[i]) + " for " + Describe(q));
      return;
    }
  }
  ++tally->near_ties;
}

void CheckRefined(const BruteScorer& scorer, const Question& q,
                  const AnswerView::Refined& r, const RankRange& r0,
                  bool keyword_model, double lambda, double eps,
                  CheckTally* tally) {
  const char* model = keyword_model ? "keyword" : "preference";
  ++tally->checks;
  if (!r.present || r.already_in_result) {
    tally->Fail(std::string(model) + " refinement missing or marked "
                "already_in_result for " + Describe(q));
    return;
  }
  CheckRank(r.original_rank, r0, "R(M, q)", q, tally);

  // The refined query keeps what its model may not change.
  ++tally->checks;
  const bool same_loc = r.refined.loc.x == q.query.loc.x &&
                        r.refined.loc.y == q.query.loc.y;
  const bool kept = keyword_model ? r.refined.w == q.query.w
                                  : r.refined.doc == q.query.doc;
  if (!same_loc || !kept) {
    tally->Fail(std::string(model) + " refinement changed more than its "
                "model allows for " + Describe(q));
  }
  if (keyword_model) {
    // doc' is drawn from q.doc ∪ M.doc.
    yask::KeywordSet pool = q.query.doc;
    for (const yask::ObjectId m : q.missing) {
      pool = yask::KeywordSet::Union(pool, scorer.store().Get(m).doc);
    }
    ++tally->checks;
    if (!r.refined.doc.IsSubsetOf(pool)) {
      tally->Fail("keyword refinement uses a term outside q.doc and M.doc " +
                  std::string("for ") + Describe(q));
    }
  }

  // Revival: every m ∈ M is in the top-k' of the refined query.
  const std::vector<double> scores = scorer.Scores(r.refined);
  const RankRange refined = LowestRank(scores, q.missing, eps);
  CheckRank(r.refined_rank, refined, "R(M, q')", q, tally);
  ++tally->checks;
  if (refined.exact > r.refined.k) {
    if (refined.lo <= r.refined.k) {
      ++tally->near_ties;
    } else {
      tally->Fail(std::string(model) + " refinement leaves M at rank " +
                  std::to_string(refined.exact) + " > k' = " +
                  std::to_string(r.refined.k) + " for " + Describe(q));
    }
  }

  // The penalty, recomputed from its ingredients (Eqns. (3) and (4)).
  const uint32_t k = q.query.k;
  const size_t delta_k = r.refined_rank > k ? r.refined_rank - k : 0;
  const double k_term = lambda * static_cast<double>(delta_k) /
                        static_cast<double>(r.original_rank - k);
  double mod_term = 0.0;
  ++tally->checks;
  if (r.penalty.delta_k != delta_k) {
    tally->Fail(std::string(model) + " penalty delta_k " +
                std::to_string(r.penalty.delta_k) + " != " +
                std::to_string(delta_k) + " for " + Describe(q));
  }
  if (keyword_model) {
    yask::KeywordSet all = q.query.doc;
    for (const yask::ObjectId m : q.missing) {
      all = yask::KeywordSet::Union(all, scorer.store().Get(m).doc);
    }
    const size_t union_size = all.size();
    const size_t common = Common(q.query.doc.ids(), r.refined.doc.ids());
    const size_t delta_doc =
        q.query.doc.size() + r.refined.doc.size() - 2 * common;
    ++tally->checks;
    if (r.penalty.delta_doc != delta_doc) {
      tally->Fail("keyword penalty delta_doc " +
                  std::to_string(r.penalty.delta_doc) + " != " +
                  std::to_string(delta_doc) + " for " + Describe(q));
    }
    mod_term = (1.0 - lambda) * static_cast<double>(delta_doc) /
               static_cast<double>(union_size);
  } else {
    const double ds = q.query.w.ws - r.refined.w.ws;
    const double dt = q.query.w.wt - r.refined.w.wt;
    const double delta_w = std::sqrt(ds * ds + dt * dt);
    CheckClose(r.penalty.delta_w, delta_w, 1e-9, "preference delta_w", q,
               tally);
    mod_term = (1.0 - lambda) * delta_w /
               std::sqrt(1.0 + q.query.w.ws * q.query.w.ws +
                         q.query.w.wt * q.query.w.wt);
  }
  CheckClose(r.penalty.value, k_term + mod_term, 1e-9,
             keyword_model ? "keyword penalty" : "preference penalty", q,
             tally);
  // The pure-k refinement (k' = R(M, q), nothing else changed) costs
  // exactly lambda, so no optimal answer costs more.
  ++tally->checks;
  if (r.penalty.value > lambda + 1e-12) {
    tally->Fail(std::string(model) + " penalty " +
                std::to_string(r.penalty.value) + " exceeds lambda for " +
                Describe(q));
  }
}

}  // namespace

BruteScorer::BruteScorer(const yask::ObjectStore& store) : store_(&store) {
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
  for (size_t i = 0; i < store.size(); ++i) {
    const yask::Point& p = store.Get(static_cast<yask::ObjectId>(i)).loc;
    if (i == 0) {
      min_x = max_x = p.x;
      min_y = max_y = p.y;
    }
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double w = max_x - min_x;
  const double h = max_y - min_y;
  diagonal_ = std::sqrt(w * w + h * h);
}

std::vector<double> BruteScorer::Scores(const yask::Query& query) const {
  std::vector<double> scores(store_->size());
  const std::vector<yask::TermId>& qdoc = query.doc.ids();
  for (size_t i = 0; i < store_->size(); ++i) {
    const yask::SpatialObject& o = store_->Get(static_cast<yask::ObjectId>(i));
    // Eqn. (1): SDist is the Euclidean distance over the MBR diagonal.
    const double dx = o.loc.x - query.loc.x;
    const double dy = o.loc.y - query.loc.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double sdist =
        diagonal_ > 0.0 ? std::min(1.0, dist / diagonal_) : 0.0;
    // Eqn. (2): Jaccard similarity of the keyword sets.
    const size_t common = Common(qdoc, o.doc.ids());
    const size_t uni = qdoc.size() + o.doc.size() - common;
    const double tsim =
        uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
    scores[i] = query.w.ws * (1.0 - sdist) + query.w.wt * tsim;
  }
  return scores;
}

std::vector<yask::ObjectId> BruteScorer::TopK(const std::vector<double>& scores,
                                              size_t k) {
  std::vector<yask::ObjectId> ids(scores.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<yask::ObjectId>(i);
  }
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                    [&](yask::ObjectId a, yask::ObjectId b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  ids.resize(k);
  return ids;
}

void CheckTally::Fail(const std::string& message) {
  ++failures;
  if (messages.size() < 8) messages.push_back(message);
}

void CheckTally::Merge(const CheckTally& other) {
  checks += other.checks;
  near_ties += other.near_ties;
  failures += other.failures;
  for (const std::string& m : other.messages) {
    if (messages.size() < 8) messages.push_back(m);
  }
}

AnswerView ViewOf(const yask::WhyNotAnswer& answer) {
  AnswerView v;
  for (const yask::MissingObjectExplanation& e : answer.explanations) {
    v.explanations.push_back({e.id, e.rank, e.score});
  }
  auto penalty = [](const yask::PenaltyBreakdown& p) {
    return AnswerView::Penalty{p.value, p.delta_k, p.delta_w, p.delta_doc};
  };
  if (answer.preference.has_value()) {
    const yask::RefinedPreferenceQuery& p = *answer.preference;
    v.preference = {true, p.refined, p.original_rank, p.refined_rank,
                    p.already_in_result, penalty(p.penalty)};
  }
  if (answer.keyword.has_value()) {
    const yask::RefinedKeywordQuery& k = *answer.keyword;
    v.keyword = {true, k.refined, k.original_rank, k.refined_rank,
                 k.already_in_result, penalty(k.penalty)};
  }
  switch (answer.recommended) {
    case yask::RefinementModel::kPreference:
      v.recommended = "preference";
      break;
    case yask::RefinementModel::kKeyword:
      v.recommended = "keyword";
      break;
    case yask::RefinementModel::kNone:
      v.recommended = "none";
      break;
  }
  for (const yask::ScoredObject& so : answer.refined_result) {
    v.refined_result.push_back(so.id);
  }
  return v;
}

bool ParseWhyNotPayload(const std::string& payload, const yask::Query& query,
                        const yask::Vocabulary& vocab, AnswerView* out) {
  auto parsed = yask::JsonValue::Parse(payload);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const yask::JsonValue& doc = *parsed;
  AnswerView v;
  for (const yask::JsonValue& e : doc.Get("explanations").array_items()) {
    v.explanations.push_back(
        {static_cast<yask::ObjectId>(e.Get("id").as_number()),
         static_cast<size_t>(e.Get("rank").as_number()),
         e.Get("score").as_number()});
  }
  auto refined = [&](const yask::JsonValue& r, bool keyword_model) {
    AnswerView::Refined out;
    if (!r.is_object()) return out;
    out.present = true;
    out.refined = query;
    if (keyword_model) {
      out.refined.doc =
          yask::LookupKeywords(r.Get("keywords").as_string(), vocab);
    } else {
      out.refined.w = yask::Weights{r.Get("ws").as_number(),
                                    r.Get("wt").as_number()};
    }
    out.refined.k = static_cast<uint32_t>(r.Get("k").as_number());
    out.original_rank = static_cast<size_t>(r.Get("original_rank").as_number());
    out.refined_rank = static_cast<size_t>(r.Get("refined_rank").as_number());
    out.already_in_result = r.Get("already_in_result").as_bool();
    const yask::JsonValue& p = r.Get("penalty");
    out.penalty = {p.Get("value").as_number(),
                   static_cast<size_t>(p.Get("delta_k").as_number()),
                   p.Get("delta_w").as_number(),
                   static_cast<size_t>(p.Get("delta_doc").as_number())};
    return out;
  };
  v.preference = refined(doc.Get("preference"), false);
  v.keyword = refined(doc.Get("keyword"), true);
  v.recommended = doc.Get("recommended").as_string();
  for (const yask::JsonValue& row : doc.Get("refined_results").array_items()) {
    v.refined_result.push_back(
        static_cast<yask::ObjectId>(row.Get("id").as_number()));
  }
  *out = std::move(v);
  return true;
}

void CheckAnswer(const BruteScorer& scorer, const Question& q,
                 const AnswerView& a, double lambda, double eps,
                 CheckTally* tally) {
  const std::vector<double> scores = scorer.Scores(q.query);

  // Explanations: one per missing object, in request order, with the
  // object's original rank and score.
  ++tally->checks;
  if (a.explanations.size() != q.missing.size()) {
    tally->Fail(std::to_string(a.explanations.size()) +
                " explanations for |M| = " + std::to_string(q.missing.size()) +
                " in " + Describe(q));
    return;
  }
  for (size_t i = 0; i < q.missing.size(); ++i) {
    const AnswerView::Explanation& e = a.explanations[i];
    ++tally->checks;
    if (e.id != q.missing[i]) {
      tally->Fail("explanation " + std::to_string(i) + " names object " +
                  std::to_string(e.id) + " in " + Describe(q));
      continue;
    }
    CheckRank(e.rank, RankOf(scores, e.id, eps), "explanation rank", q, tally);
    CheckClose(e.score, scores[e.id], 1e-9, "explanation score", q, tally);
  }

  const RankRange r0 = LowestRank(scores, q.missing, eps);
  CheckRefined(scorer, q, a.preference, r0, /*keyword_model=*/false, lambda,
               eps, tally);
  CheckRefined(scorer, q, a.keyword, r0, /*keyword_model=*/true, lambda, eps,
               tally);
  if (!a.preference.present || !a.keyword.present) return;

  // The cheaper model is recommended; ties go to preference adjustment.
  const bool pref_cheaper =
      a.preference.penalty.value <= a.keyword.penalty.value;
  const std::string expected = pref_cheaper ? "preference" : "keyword";
  ++tally->checks;
  if (a.recommended != expected) {
    tally->Fail("recommended " + a.recommended + ", cheaper is " + expected +
                " in " + Describe(q));
    return;
  }
  const yask::Query& chosen =
      pref_cheaper ? a.preference.refined : a.keyword.refined;
  CheckOrder(scorer.Scores(chosen), a.refined_result, chosen.k, eps,
             "refined_result", q, tally);
}

void CheckQueryPayload(const BruteScorer& scorer, const yask::Query& query,
                       const std::string& payload, double eps,
                       CheckTally* tally) {
  Question q;
  q.query = query;
  auto parsed = yask::JsonValue::Parse(payload);
  ++tally->checks;
  if (!parsed.ok() || !parsed->Get("results").is_array()) {
    tally->Fail("malformed /query payload for " + Describe(q));
    return;
  }
  std::vector<yask::ObjectId> ids;
  for (const yask::JsonValue& row : parsed->Get("results").array_items()) {
    ids.push_back(static_cast<yask::ObjectId>(row.Get("id").as_number()));
  }
  CheckOrder(scorer.Scores(query), ids, query.k, eps, "/query results", q,
             tally);
}

}  // namespace yask_bench
