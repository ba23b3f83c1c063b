#include "cluster/pious.hpp"

#include <algorithm>
#include <stdexcept>

namespace ess::cluster {

PiousServer::PiousServer(sim::Engine& engine, const PiousConfig& cfg, int id)
    : id_(id), ring_(4096) {
  drive_ = std::make_unique<disk::Drive>(
      engine, disk::ServiceModel(disk::beowulf_geometry(), cfg.disk));
  driver_ = std::make_unique<driver::IdeDriver>(*drive_, &ring_);
  block::CacheConfig cc;
  cc.capacity_blocks = cfg.cache_blocks;
  cache_ = std::make_unique<block::BufferCache>(*driver_, cc);
  fs::FsConfig fc;
  fc.total_blocks = cfg.fs_blocks;
  fs_ = std::make_unique<fs::Ext2Lite>(*cache_, fc);
  fs_->mkfs();
}

PiousService::PiousService(PiousConfig cfg)
    : cfg_(cfg), net_(cfg.ethernet) {
  if (cfg_.servers < 1) throw std::invalid_argument("PIOUS: no servers");
  for (int i = 0; i < cfg_.servers; ++i) {
    servers_.push_back(std::make_unique<PiousServer>(engine_, cfg_, i));
  }
  engine_.run();  // settle mkfs I/O
}

PiousService::FileId PiousService::create(const std::string& name) {
  ++stats_.opens;
  ParallelFile pf;
  pf.name = name;
  for (auto& srv : servers_) {
    pf.fragment_inos.push_back(
        srv->fsys().create("/pious/" + name + ".frag"));
  }
  files_.push_back(std::move(pf));
  return static_cast<FileId>(files_.size() - 1);
}

PiousService::FileId PiousService::open(const std::string& name) {
  ++stats_.opens;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) return static_cast<FileId>(i);
  }
  throw std::runtime_error("PIOUS: no such file: " + name);
}

std::uint64_t PiousService::size_of(FileId f) const {
  return files_.at(f).size;
}

SimTime PiousService::reserve_link(std::uint64_t bytes) {
  // The wire occupancy excludes the fixed software latency, which overlaps
  // with other transfers; the bytes themselves serialize on the medium.
  const SimTime latency = net_.config().latency;
  const SimTime wire = net_.transfer_time(bytes) - latency;
  const SimTime start = std::max(engine_.now(), link_busy_until_);
  link_busy_until_ = start + wire;
  return (start - engine_.now()) + wire + latency;
}

std::vector<PiousService::Fragment> PiousService::fragments_of(
    std::uint64_t offset, std::uint64_t len) const {
  std::vector<Fragment> out;
  const std::uint64_t su = cfg_.stripe_unit;
  const auto n = static_cast<std::uint64_t>(cfg_.servers);
  std::uint64_t pos = offset;
  while (pos < offset + len) {
    const std::uint64_t stripe = pos / su;
    const auto server = static_cast<int>(stripe % n);
    const std::uint64_t in_stripe = pos % su;
    const std::uint64_t take =
        std::min(su - in_stripe, offset + len - pos);
    // Fragment-local offset: each server holds every n-th stripe unit.
    const std::uint64_t frag_off = (stripe / n) * su + in_stripe;
    out.push_back(Fragment{server, frag_off, take});
    pos += take;
  }
  return out;
}

void PiousService::read(FileId f, std::uint64_t offset, std::uint64_t len,
                        Done done) {
  ++stats_.reads;
  stats_.bytes_read += len;
  auto& pf = files_.at(f);
  auto frags = fragments_of(offset, len);
  stats_.fragments += frags.size();
  if (frags.empty()) {
    if (done) done();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(frags.size());
  auto fire = [remaining, done = std::move(done)] {
    if (--*remaining == 0 && done) done();
  };
  for (const auto& fr : frags) {
    // Request message to the server, local I/O, then the data reply over
    // the shared medium.
    const SimTime req_net = reserve_link(128);
    engine_.schedule_after(req_net, [this, &pf, fr, fire] {
      auto reply = [this, fr, fire] {
        engine_.schedule_after(reserve_link(fr.len), fire);
      };
      const auto s = static_cast<std::size_t>(fr.server);
      if (!servers_[s]->fsys().read(pf.fragment_inos[s], fr.frag_offset,
                                    fr.len, reply)) {
        reply();  // resident at the server: reply at once
      }
    });
  }
}

void PiousService::write(FileId f, std::uint64_t offset, std::uint64_t len,
                         Done done) {
  ++stats_.writes;
  stats_.bytes_written += len;
  auto& pf = files_.at(f);
  pf.size = std::max(pf.size, offset + len);
  auto frags = fragments_of(offset, len);
  stats_.fragments += frags.size();
  if (frags.empty()) {
    if (done) done();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(frags.size());
  auto fire = [remaining, done = std::move(done)] {
    if (--*remaining == 0 && done) done();
  };
  for (const auto& fr : frags) {
    const SimTime data_net = reserve_link(fr.len);
    engine_.schedule_after(data_net, [this, &pf, fr, fire] {
      auto& srv = *servers_[static_cast<std::size_t>(fr.server)];
      srv.fsys().write(pf.fragment_inos[static_cast<std::size_t>(fr.server)],
                       fr.frag_offset, fr.len);
      // PIOUS writes are stable before the ack: commit to the platter.
      srv.fsys().sync();
      engine_.schedule_after(net_.transfer_time(64), fire);
    });
  }
}

double PiousService::timed_read_bandwidth(FileId f, std::uint64_t chunk) {
  const std::uint64_t size = size_of(f);
  if (size == 0 || chunk == 0) return 0.0;
  const SimTime start = engine_.now();
  bool finished = false;
  std::uint64_t offset = 0;
  // Chain sequential chunk reads.
  std::function<void()> next = [&] {
    if (offset >= size) {
      finished = true;
      return;
    }
    const std::uint64_t take = std::min(chunk, size - offset);
    const std::uint64_t this_off = offset;
    offset += take;
    read(f, this_off, take, next);
  };
  next();
  while (!finished && engine_.step()) {
  }
  const double secs = to_seconds(engine_.now() - start);
  return secs > 0 ? static_cast<double>(size) / 1e6 / secs : 0.0;
}

}  // namespace ess::cluster
