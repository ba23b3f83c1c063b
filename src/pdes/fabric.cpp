#include "pdes/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "kernel/node_kernel.hpp"

namespace ess::pdes {

WindowFabric::WindowFabric(cluster::EthernetConfig eth, std::size_t shards)
    : net_(eth), shards_(shards) {
  if (shards == 0) throw std::invalid_argument("WindowFabric: no shards");
}

void WindowFabric::set_world_size(int n) {
  if (n < 1) throw std::invalid_argument("WindowFabric: bad world size");
  world_size_ = n;
}

void WindowFabric::register_task(int rank, kernel::NodeKernel* node,
                                 std::uint32_t pid, std::size_t shard) {
  if (rank < 0) throw std::invalid_argument("WindowFabric: negative rank");
  if (shard >= shards_.size()) {
    throw std::out_of_range("WindowFabric: bad shard");
  }
  const auto need = static_cast<std::size_t>(rank) + 1;
  if (tasks_.size() < need) {
    tasks_.resize(need);
    mailboxes_.resize(need);
    waiting_.resize(need);
  }
  tasks_[static_cast<std::size_t>(rank)] =
      Task{node, pid, node->node_id(), shard};
  const auto nic = static_cast<std::size_t>(node->node_id());
  if (nics_.size() <= nic) nics_.resize(nic + 1);
}

void WindowFabric::send(int src_rank, int dst_rank, std::uint64_t bytes,
                        int tag) {
  if (dst_rank < 0 || dst_rank >= task_count()) {
    throw std::out_of_range("WindowFabric: bad destination rank");
  }
  const Task& src = tasks_.at(static_cast<std::size_t>(src_rank));
  if (src.node == nullptr) {
    throw std::logic_error("WindowFabric: unbound source rank");
  }
  ShardState& sh = shards_[src.shard];
  Nic& nic = nics_[static_cast<std::size_t>(src.node_id)];
  ++sh.stats.sends;
  sh.stats.bytes += bytes;
  // The transfer occupies the sender's NIC for the non-propagation part of
  // the transfer time, back to back with that node's earlier sends; the
  // propagation latency rides on top. Everything read or written here
  // belongs to the sending node, so the delivery time is the same whatever
  // shard the peers live on.
  const SimTime now = src.node->engine().now();
  const SimTime wire = net_.transfer_time(bytes) - net_.config().latency;
  const SimTime start = std::max(now, nic.busy_until);
  nic.busy_until = start + wire;
  sh.stats.nic_busy += wire;
  sh.outbox.push_back(Flight{start + wire + net_.config().latency,
                             src.node_id, nic.seq++, src_rank, dst_rank,
                             bytes, tag});
}

bool WindowFabric::try_recv(int dst_rank, int src_rank, int tag) {
  auto& box = mailboxes_.at(static_cast<std::size_t>(dst_rank));
  for (auto it = box.begin(); it != box.end(); ++it) {
    if ((src_rank == -1 || it->src == src_rank) && it->tag == tag) {
      box.erase(it);
      ++shards_[tasks_[static_cast<std::size_t>(dst_rank)].shard]
            .stats.recvs;
      return true;
    }
  }
  return false;
}

void WindowFabric::wait_recv(int dst_rank, int src_rank, int tag) {
  auto& waiter = waiting_.at(static_cast<std::size_t>(dst_rank));
  if (waiter) throw std::logic_error("WindowFabric: rank already waiting");
  waiter = Waiter{src_rank, tag};
}

int WindowFabric::barrier_needed(int participants) const {
  return participants > 0
             ? participants
             : (world_size_ > 0 ? world_size_ : task_count());
}

bool WindowFabric::enter_barrier(int rank, int group, int participants) {
  const Task& t = tasks_.at(static_cast<std::size_t>(rank));
  const int needed = barrier_needed(participants);
  if (needed <= 1) {
    // Nothing to wait for; completes inline like a world of one.
    ++shards_[t.shard].stats.barriers_completed;
    return true;
  }
  shards_[t.shard].entries.push_back(
      BarrierEntry{group, t.node->engine().now(), rank, needed});
  return false;  // every entrant blocks; drain() releases filled groups
}

bool WindowFabric::quiescent() const {
  for (const auto& sh : shards_) {
    if (!sh.outbox.empty() || !sh.entries.empty()) return false;
  }
  return true;
}

void WindowFabric::drain(const std::vector<sim::Engine*>& shard_engines) {
  // 1. Messages: one globally sorted injection pass. Sorting by (delivery,
  // source node, per-NIC sequence) fixes the scheduling order of every
  // same-time delivery, so each destination engine fires them in the same
  // FIFO order at any shard count.
  std::vector<Flight>& flights = flights_;
  flights.clear();
  for (auto& sh : shards_) {
    flights.insert(flights.end(), sh.outbox.begin(), sh.outbox.end());
    sh.outbox.clear();
  }
  std::sort(flights.begin(), flights.end(),
            [](const Flight& a, const Flight& b) {
              return std::tie(a.delivery, a.src_node, a.nic_seq) <
                     std::tie(b.delivery, b.src_node, b.nic_seq);
            });
  for (const Flight& f : flights) {
    const Task& dst = tasks_.at(static_cast<std::size_t>(f.dst_rank));
    shard_engines[dst.shard]->schedule_at(
        f.delivery, [this, dst_rank = f.dst_rank, src_rank = f.src_rank,
                     tag = f.tag] { deliver(dst_rank, Mail{src_rank, tag}); });
  }

  // 2. Barriers: fold this round's entries into the accumulated groups in
  // a partition-invariant order, then release every filled group.
  std::vector<BarrierEntry>& entries = entries_;
  entries.clear();
  for (auto& sh : shards_) {
    entries.insert(entries.end(), sh.entries.begin(), sh.entries.end());
    sh.entries.clear();
  }
  std::sort(entries.begin(), entries.end(),
            [](const BarrierEntry& a, const BarrierEntry& b) {
              return std::tie(a.group, a.at, a.rank) <
                     std::tie(b.group, b.at, b.rank);
            });
  for (const BarrierEntry& e : entries) {
    Group& g = groups_[e.group];
    if (g.needed == 0) g.needed = e.needed;
    for (const auto& [at, r] : g.entries) {
      if (r == e.rank) {
        throw std::logic_error("WindowFabric: rank already in barrier");
      }
    }
    g.entries.push_back({e.at, e.rank});
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    Group& g = it->second;
    // (entry time, rank) order decides instance membership when a group
    // somehow overfills; normally size == needed exactly.
    std::sort(g.entries.begin(), g.entries.end());
    while (static_cast<int>(g.entries.size()) >= g.needed) {
      const auto members = std::vector<std::pair<SimTime, int>>(
          g.entries.begin(), g.entries.begin() + g.needed);
      g.entries.erase(g.entries.begin(), g.entries.begin() + g.needed);
      ++drain_stats_.barriers_completed;
      SimTime last = 0;
      for (const auto& [at, r] : members) last = std::max(last, at);
      // barrier_time(n >= 2) >= one 64-byte transfer >= the lookahead, so
      // the release is never behind any shard's clock at drain time.
      const SimTime release = last + net_.barrier_time(g.needed);
      for (const auto& [at, r] : members) {
        const Task& t = tasks_.at(static_cast<std::size_t>(r));
        shard_engines[t.shard]->schedule_at(
            release, [this, r = r] { resume(r, usec(20)); });
      }
    }
    it = g.entries.empty() ? groups_.erase(it) : std::next(it);
  }
}

void WindowFabric::deliver(int dst_rank, Mail m) {
  auto& waiter = waiting_[static_cast<std::size_t>(dst_rank)];
  if (waiter && (waiter->src == -1 || waiter->src == m.src) &&
      waiter->tag == m.tag) {
    waiter.reset();
    ++shards_[tasks_[static_cast<std::size_t>(dst_rank)].shard].stats.recvs;
    resume(dst_rank, usec(50));  // unpack cost
    return;
  }
  mailboxes_[static_cast<std::size_t>(dst_rank)].push_back(m);
}

void WindowFabric::resume(int rank, SimTime charge) {
  const Task& t = tasks_.at(static_cast<std::size_t>(rank));
  if (t.node == nullptr) throw std::logic_error("WindowFabric: unbound rank");
  t.node->external_resume(t.pid, charge);
}

FabricStats WindowFabric::stats() const {
  FabricStats out = drain_stats_;
  for (const auto& sh : shards_) {
    out.sends += sh.stats.sends;
    out.recvs += sh.stats.recvs;
    out.bytes += sh.stats.bytes;
    out.barriers_completed += sh.stats.barriers_completed;
    out.nic_busy += sh.stats.nic_busy;
  }
  return out;
}

}  // namespace ess::pdes
