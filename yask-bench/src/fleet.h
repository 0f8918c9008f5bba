// The loopback fleet of the fleet workloads: 4 ShardServices booted from
// their per-shard snapshot files the way `yask_shard_server --snapshot`
// boots, and two coordinator YaskServices over RemoteCorpus (result cache
// off and on). In the traced run every coordinator-to-shard connection goes
// through a byte-counting TCP relay.

#ifndef YASK_BENCH_FLEET_H_
#define YASK_BENCH_FLEET_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"

namespace yask_bench {

/// A TCP relay on 127.0.0.1 that forwards every accepted connection to
/// `target_port` and counts the bytes moved in both directions.
class CountingRelay {
 public:
  explicit CountingRelay(uint16_t target_port);
  ~CountingRelay();
  CountingRelay(const CountingRelay&) = delete;
  CountingRelay& operator=(const CountingRelay&) = delete;

  yask::Status Start();
  uint16_t port() const { return port_; }
  uint64_t bytes() const { return bytes_.load(); }

 private:
  void AcceptLoop();
  void Pump(int client_fd);

  const uint16_t target_port_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> bytes_{0};
  std::mutex mu_;
  std::vector<std::thread> pumps_;  // Guarded by mu_.
  std::thread acceptor_;
};

class Fleet {
 public:
  /// Loads `<prefix>.shard-<i>.snap` for every shard, starts the shard
  /// servers (behind relays when `relay`), connects both coordinators and
  /// starts them. `load_ms` receives the summed snapshot load time.
  static yask::Result<std::unique_ptr<Fleet>> Boot(const std::string& prefix,
                                                   uint32_t shards, bool relay,
                                                   double* load_ms);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  uint16_t plain_port() const { return plain_->port(); }
  uint16_t cached_port() const { return cached_->port(); }
  const std::vector<uint16_t>& shard_ports() const { return shard_ports_; }
  /// Bytes through the relays so far (0 without relays).
  uint64_t relay_bytes() const;

 private:
  Fleet() = default;

  // Declaration order is teardown order reversed: coordinators stop first,
  // then their corpora, the relays, the shard servers and their corpora.
  std::vector<std::unique_ptr<yask::Corpus>> corpora_;
  std::vector<std::unique_ptr<yask::ShardService>> shards_;
  std::vector<uint16_t> shard_ports_;
  std::vector<std::unique_ptr<CountingRelay>> relays_;
  std::optional<yask::RemoteCorpus> plain_remote_;
  std::optional<yask::RemoteCorpus> cached_remote_;
  std::unique_ptr<yask::YaskService> plain_;
  std::unique_ptr<yask::YaskService> cached_;
};

/// One Prometheus exposition, parsed: series ("name{labels}") -> value.
using Exposition = std::map<std::string, double>;

/// GET /metrics on a loopback port.
Exposition Scrape(uint16_t port);

/// Sum of every series of `name` whose label text contains `label_filter`
/// ("" matches all). Histogram parts are families of their own here
/// (`<name>_sum`, `<name>_count`).
double SumSeries(const Exposition& e, const std::string& name,
                 const std::string& label_filter = "");

}  // namespace yask_bench

#endif  // YASK_BENCH_FLEET_H_
