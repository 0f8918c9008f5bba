#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "reference.h"

namespace yask_bench {
namespace {

struct Extent {
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
};

Extent ExtentOf(const yask::ObjectStore& store) {
  Extent e;
  for (size_t i = 0; i < store.size(); ++i) {
    const yask::Point& p = store.Get(static_cast<yask::ObjectId>(i)).loc;
    if (i == 0) {
      e.min_x = e.max_x = p.x;
      e.min_y = e.max_y = p.y;
    }
    e.min_x = std::min(e.min_x, p.x);
    e.max_x = std::max(e.max_x, p.x);
    e.min_y = std::min(e.min_y, p.y);
    e.max_y = std::max(e.max_y, p.y);
  }
  return e;
}

/// Four hotspot centres at object locations; shapes jitter around them by
/// ~2% of the data extent (a neighbourhood, not a city).
std::vector<yask::Point> Hotspots(const yask::ObjectStore& store,
                                  yask::Rng* rng) {
  std::vector<yask::Point> centers;
  for (int h = 0; h < 4; ++h) {
    centers.push_back(
        store.Get(static_cast<yask::ObjectId>(rng->NextBounded(store.size())))
            .loc);
  }
  return centers;
}

yask::Point NearHotspot(const std::vector<yask::Point>& centers,
                        const Extent& e, yask::Rng* rng) {
  const yask::Point& c = centers[rng->NextBounded(centers.size())];
  const double sx = std::max(e.max_x - e.min_x, 1e-9) * 0.02;
  const double sy = std::max(e.max_y - e.min_y, 1e-9) * 0.02;
  return yask::Point{c.x + rng->NextGaussian() * sx,
                     c.y + rng->NextGaussian() * sy};
}

}  // namespace

yask::DatasetSpec BenchDatasetSpec(size_t n) {
  yask::DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = 2000;
  spec.keyword_zipf = 1.0;
  spec.min_keywords = 3;
  spec.max_keywords = 10;
  spec.seed = 20160901;
  return spec;
}

std::vector<Question> MakeQuestions(const yask::ObjectStore& store,
                                    size_t count, uint64_t seed) {
  yask::Rng rng(seed);
  const Extent extent = ExtentOf(store);
  const std::vector<yask::Point> centers = Hotspots(store, &rng);
  const BruteScorer scorer(store);
  std::vector<Question> questions;
  while (questions.size() < count) {
    const size_t i = questions.size();
    Question q;
    q.query.loc = NearHotspot(centers, extent, &rng);
    // Words a user near here would type: terms of random objects' documents.
    const size_t want = 1 + i % 3;
    for (size_t guard = 0; q.query.doc.size() < want && guard < 200; ++guard) {
      const auto& ids =
          store.Get(static_cast<yask::ObjectId>(rng.NextBounded(store.size())))
              .doc.ids();
      if (!ids.empty()) q.query.doc.Insert(ids[rng.NextBounded(ids.size())]);
    }
    q.query.k = 10;
    q.query.w = yask::Weights::FromWs(0.5);
    // M: one or two objects ranked just outside the top-k.
    const size_t offset = 2 + rng.NextBounded(4);
    const size_t missing = 1 + i % 2;
    const std::vector<yask::ObjectId> ranked = BruteScorer::TopK(
        scorer.Scores(q.query), q.query.k + offset + 2 * missing);
    for (size_t m = 0; m < missing; ++m) {
      q.missing.push_back(ranked[q.query.k + offset + 2 * m]);
    }
    questions.push_back(std::move(q));
  }
  return questions;
}

std::vector<yask::Query> MakeTrafficShapes(const yask::ObjectStore& store,
                                           size_t count, uint64_t seed) {
  yask::Rng rng(seed);
  std::map<yask::TermId, size_t> freq;
  for (size_t i = 0; i < store.size(); ++i) {
    for (const yask::TermId t : store.Get(static_cast<yask::ObjectId>(i)).doc) {
      ++freq[t];
    }
  }
  std::vector<std::pair<size_t, yask::TermId>> ranked;
  for (const auto& [term, n] : freq) ranked.emplace_back(n, term);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const yask::ZipfSampler term_pick(std::min<size_t>(ranked.size(), 256), 1.0);
  const Extent extent = ExtentOf(store);
  const std::vector<yask::Point> centers = Hotspots(store, &rng);
  std::vector<yask::Query> shapes;
  for (size_t i = 0; i < count; ++i) {
    yask::Query q;
    q.loc = NearHotspot(centers, extent, &rng);
    const size_t want = static_cast<size_t>(rng.NextInt(1, 3));
    for (size_t guard = 0; q.doc.size() < want && guard < 64; ++guard) {
      q.doc.Insert(ranked[term_pick.Sample(&rng)].second);
    }
    q.k = 5;
    q.w = yask::Weights::FromWs(0.5);
    shapes.push_back(std::move(q));
  }
  return shapes;
}

std::string QueryBody(const yask::Query& query,
                      const yask::Vocabulary& vocab) {
  char loc[96];
  std::snprintf(loc, sizeof(loc), "{\"x\":%.17g,\"y\":%.17g,", query.loc.x,
                query.loc.y);
  return std::string(loc) + "\"keywords\":\"" + query.doc.ToString(vocab) +
         "\",\"k\":" + std::to_string(query.k) + "}";
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  yask::Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

}  // namespace yask_bench
