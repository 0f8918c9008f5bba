// The benchmark's inputs: the dataset, the fixed why-not question set and the
// production-shaped /query traffic. Everything is generated here from seeds
// the benchmark owns, so a change to the program never changes its inputs.

#ifndef YASK_BENCH_INPUTS_H_
#define YASK_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/query/query.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/object_store.h"

namespace yask_bench {

/// The dataset family of the repository's benchmarks (bench/bench_util.h):
/// clustered placement, Zipf(1.0) keywords over |vocab| = 2000, 3-10
/// keywords per object, seed 20160901.
yask::DatasetSpec BenchDatasetSpec(size_t n);

/// One why-not question: an initial query and the objects M the user expected.
struct Question {
  yask::Query query;
  std::vector<yask::ObjectId> missing;
};

/// The fixed question set: `count` hotspot-clustered queries (4 hotspots,
/// k = 10, 1, 2 and 3 keywords in turn), each with |M| = 1 or 2 objects
/// picked just outside the top-k by the brute-force scorer (ranks k+3 ..
/// k+8). The set depends on `seed` only; the benchmark passes a constant.
std::vector<Question> MakeQuestions(const yask::ObjectStore& store,
                                    size_t count, uint64_t seed);

/// Production-shaped /query traffic (the design of ProductionWorkload in
/// bench/bench_util.h): `count` distinct shapes around 4 hotspots whose
/// keywords are Zipf draws over the corpus's 256 most frequent terms,
/// k = 5; shape popularity is Zipf(1.0).
std::vector<yask::Query> MakeTrafficShapes(const yask::ObjectStore& store,
                                           size_t count, uint64_t seed);

/// The POST /query body of `query`, with the location printed to full
/// precision so the server parses back the identical doubles.
std::string QueryBody(const yask::Query& query, const yask::Vocabulary& vocab);

/// `0 .. n-1` shuffled by `seed`.
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

}  // namespace yask_bench

#endif  // YASK_BENCH_INPUTS_H_
