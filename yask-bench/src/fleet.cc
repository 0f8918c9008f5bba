#include "fleet.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>

#include "common.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/http_server.h"

namespace yask_bench {
namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

}  // namespace

CountingRelay::CountingRelay(uint16_t target_port)
    : target_port_(target_port) {}

CountingRelay::~CountingRelay() {
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> pumps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pumps.swap(pumps_);
  }
  for (std::thread& t : pumps) t.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

yask::Status CountingRelay::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return yask::Status::Unavailable("relay socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
          0) {
    return yask::Status::Unavailable("relay bind/listen");
  }
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return yask::Status::OK();
}

void CountingRelay::AcceptLoop() {
  while (!stop_.load()) {
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    std::lock_guard<std::mutex> lock(mu_);
    pumps_.emplace_back([this, client] { Pump(client); });
  }
}

void CountingRelay::Pump(int client_fd) {
  const int upstream = ConnectLoopback(target_port_);
  if (upstream < 0) {
    ::close(client_fd);
    return;
  }
  char buf[64 * 1024];
  bool open = true;
  while (open && !stop_.load()) {
    pollfd p[2] = {{client_fd, POLLIN, 0}, {upstream, POLLIN, 0}};
    if (::poll(p, 2, 100) <= 0) continue;
    for (int i = 0; i < 2 && open; ++i) {
      if ((p[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int from = i == 0 ? client_fd : upstream;
      const int to = i == 0 ? upstream : client_fd;
      const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
      if (n <= 0 || !SendAll(to, buf, static_cast<size_t>(n))) {
        open = false;
        break;
      }
      bytes_.fetch_add(static_cast<uint64_t>(n));
    }
  }
  ::shutdown(client_fd, SHUT_RDWR);
  ::shutdown(upstream, SHUT_RDWR);
  ::close(client_fd);
  ::close(upstream);
}

yask::Result<std::unique_ptr<Fleet>> Fleet::Boot(const std::string& prefix,
                                                 uint32_t shards, bool relay,
                                                 double* load_ms) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  std::vector<std::string> endpoints;
  *load_ms = 0.0;
  for (uint32_t s = 0; s < shards; ++s) {
    // Adopt the indexes the file carries, as yask_shard_server does.
    yask::CorpusOptions options;
    options.build_kcr_tree = false;
    std::unique_ptr<yask::ShardManifest> manifest;
    const Clock::time_point start = Clock::now();
    yask::Result<yask::Corpus> corpus =
        yask::CorpusBuilder(options).FromSnapshot(
            yask::ShardedCorpus::ShardFilePath(prefix, s), &manifest);
    *load_ms += MsSince(start);
    if (!corpus.ok()) return corpus.status();
    if (!corpus->has_kcr() || manifest == nullptr) {
      return yask::Status::InvalidArgument(
          "shard snapshot without KcR section or manifest");
    }
    fleet->corpora_.push_back(
        std::make_unique<yask::Corpus>(std::move(corpus).value()));
    fleet->shards_.push_back(std::make_unique<yask::ShardService>(
        *fleet->corpora_.back(),
        yask::ShardService::InfoFromManifest(*manifest)));
    if (yask::Status st = fleet->shards_.back()->Start(); !st.ok()) return st;
    uint16_t port = fleet->shards_.back()->port();
    fleet->shard_ports_.push_back(port);
    if (relay) {
      fleet->relays_.push_back(std::make_unique<CountingRelay>(port));
      if (yask::Status st = fleet->relays_.back()->Start(); !st.ok()) return st;
      port = fleet->relays_.back()->port();
    }
    endpoints.push_back("127.0.0.1:" + std::to_string(port));
  }
  auto plain = yask::RemoteCorpus::Connect(endpoints);
  if (!plain.ok()) return plain.status();
  auto cached = yask::RemoteCorpus::Connect(endpoints);
  if (!cached.ok()) return cached.status();
  fleet->plain_remote_.emplace(std::move(plain).value());
  fleet->cached_remote_.emplace(std::move(cached).value());
  fleet->plain_ = std::make_unique<yask::YaskService>(*fleet->plain_remote_);
  yask::YaskServiceOptions cached_options;
  cached_options.enable_result_cache = true;
  fleet->cached_ = std::make_unique<yask::YaskService>(*fleet->cached_remote_,
                                                       cached_options);
  if (yask::Status st = fleet->plain_->Start(); !st.ok()) return st;
  if (yask::Status st = fleet->cached_->Start(); !st.ok()) return st;
  return fleet;
}

Fleet::~Fleet() {
  if (plain_ != nullptr) plain_->Stop();
  if (cached_ != nullptr) cached_->Stop();
  plain_.reset();
  cached_.reset();
  plain_remote_.reset();
  cached_remote_.reset();
  relays_.clear();
  for (auto& shard : shards_) shard->Stop();
  shards_.clear();
  corpora_.clear();
}

uint64_t Fleet::relay_bytes() const {
  uint64_t total = 0;
  for (const auto& relay : relays_) total += relay->bytes();
  return total;
}

Exposition Scrape(uint16_t port) {
  Exposition out;
  auto body = yask::HttpFetch(port, "GET", "/metrics");
  if (!body.ok()) return out;
  std::istringstream lines(*body);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double SumSeries(const Exposition& e, const std::string& name,
                 const std::string& label_filter) {
  double total = 0.0;
  for (const auto& [series, value] : e) {
    const size_t brace = series.find('{');
    const std::string family =
        brace == std::string::npos ? series : series.substr(0, brace);
    if (family != name) continue;
    if (series.find(label_filter) == std::string::npos) continue;
    total += value;
  }
  return total;
}

}  // namespace yask_bench
