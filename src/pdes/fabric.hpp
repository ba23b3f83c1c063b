// Lookahead-bounded message fabric for the sharded machine: PVM's async
// send, blocking tagged receive and group barrier over the Ethernet model.
//
// A shared wire that serializes every transfer, or a barrier completed
// inline in the last entrant's call, would be global state a parallel
// simulation cannot touch from concurrent shard threads without making
// the result depend on thread timing. This fabric states the primitives
// in a partition-invariant form:
//
//   * Transfers serialize on the *sender's* NIC (per-node busy time), so
//     the only mutable wire state belongs to the node whose event is
//     executing — always the calling shard's own state, never a peer's.
//   * Sends are not scheduled into the destination engine immediately;
//     they queue in the calling shard's outbox. Between windows the
//     machine drains every outbox, sorts globally by (delivery time,
//     source node, per-NIC sequence) and injects the deliveries in that
//     order — the destination engine sees one deterministic stream no
//     matter how nodes were partitioned.
//   * Barriers are symmetric: every entrant blocks (the last one too,
//     rather than sailing through inline), entries are logged per shard,
//     and a filled group releases everyone at
//     last_entry + EthernetModel::barrier_time(n).
//
// The Ethernet propagation latency is the protocol's lookahead: anything
// sent during a window [t, t+L) is delivered no earlier than t+L, which
// is exactly the next window boundary — so deliveries never have to be
// injected into a shard's past.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "cluster/ethernet.hpp"
#include "kernel/fabric_iface.hpp"
#include "sim/engine.hpp"
#include "util/sim_time.hpp"

namespace ess::kernel {
class NodeKernel;
}

namespace ess::pdes {

struct FabricStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers_completed = 0;
  /// Summed per-NIC transmit time (a cluster-wide figure: with N nodes it
  /// can exceed wall-clock sim time N-fold).
  SimTime nic_busy = 0;

  // Window-scheduler counters, bumped by the machine via note_window().
  // sends/recvs/bytes/barriers_completed are partition-invariant; these
  // three describe the scheduler and legitimately vary with the shard
  // count (they are the knobs the perf work turns).
  /// Lookahead windows that entered the serialized drain section.
  std::uint64_t windows = 0;
  /// Windows fused straight onto the previous one: the fabric was
  /// quiescent (no outbox flight, no barrier entry anywhere), so the
  /// drain was skipped entirely. The pre-fusion scheduler would have
  /// counted these under `windows`.
  std::uint64_t fused_windows = 0;
  /// Shard-window slots skipped because the shard had no event before
  /// the window boundary (its runner was never woken).
  std::uint64_t elided_shards = 0;
};

class WindowFabric final : public kernel::MessageFabric {
 public:
  WindowFabric(cluster::EthernetConfig eth, std::size_t shards);

  /// Declare the number of ranks before any is spawned; world-group
  /// barriers (participants 0) complete only when this many ranks have
  /// entered.
  void set_world_size(int n);
  int world_size() const { return world_size_; }

  /// Bind a rank to a process on a node owned by `shard`. Ranks must be
  /// dense 0..n-1 before use. Single-threaded (spawn time).
  void register_task(int rank, kernel::NodeKernel* node, std::uint32_t pid,
                     std::size_t shard);
  int task_count() const { return static_cast<int>(tasks_.size()); }

  /// The conservative lookahead: no send at time t is visible to any
  /// receiver before t + lookahead().
  SimTime lookahead() const { return net_.config().latency; }

  // ---- MessageFabric (called from shard threads during a window) ----
  // Each call runs inside the calling process's shard engine and touches
  // only state owned by that shard (its outbox/entry log, the sending
  // node's NIC, the receiving rank's own mailbox — the receiver is always
  // the caller for recv paths), so no locking is needed.

  void send(int src_rank, int dst_rank, std::uint64_t bytes,
            int tag) override;
  bool try_recv(int dst_rank, int src_rank, int tag) override;
  void wait_recv(int dst_rank, int src_rank, int tag) override;
  bool enter_barrier(int rank, int group, int participants) override;

  // ---- window-sync protocol (single-threaded, between windows) ----

  /// Drain every shard's outbox and barrier entry log: deliveries are
  /// sorted by (delivery time, source node, per-NIC sequence) and
  /// scheduled into the destination shards' engines; filled barrier
  /// groups release all their entrants. Every injected event's time is
  /// >= the entry/send time + lookahead(), so it is never in any shard's
  /// past as long as drains happen at least once per lookahead window.
  /// Runs on the coordinating thread alone: all of a 256-node, 4-shard,
  /// 4-job run's drains take 0.05-0.08 s of its ~1.9 s (4-thread x86-64
  /// host), too little to repay fanning the injection out.
  void drain(const std::vector<sim::Engine*>& shard_engines);

  /// True when no shard holds a pending flight or barrier entry — the
  /// next drain would be a no-op, so the machine may fuse the next
  /// window straight onto this one. Barrier groups left unfilled across
  /// drains don't count: they can only fill through new entries.
  bool quiescent() const;

  /// Scheduler accounting, called once per window by the machine (from
  /// the serialized section).
  void note_window(bool fused, std::size_t elided) {
    FabricStats& st = drain_stats_;
    fused ? ++st.fused_windows : ++st.windows;
    st.elided_shards += elided;
  }

  /// Folded over the per-shard accumulators; call between windows.
  FabricStats stats() const;

 private:
  struct Task {
    kernel::NodeKernel* node = nullptr;
    std::uint32_t pid = 0;
    int node_id = 0;
    std::size_t shard = 0;
  };
  /// One cross-window transfer, keyed for the global injection sort.
  struct Flight {
    SimTime delivery = 0;
    int src_node = 0;
    std::uint64_t nic_seq = 0;
    int src_rank = 0;
    int dst_rank = 0;
    std::uint64_t bytes = 0;
    int tag = 0;
  };
  struct BarrierEntry {
    int group = 0;
    SimTime at = 0;
    int rank = 0;
    int needed = 0;
  };
  struct Mail {
    int src = 0;
    int tag = 0;
  };
  struct Waiter {
    int src = -1;
    int tag = 0;
  };
  struct ShardState {
    std::vector<Flight> outbox;
    std::vector<BarrierEntry> entries;
    FabricStats stats;
  };
  struct Nic {
    SimTime busy_until = 0;
    std::uint64_t seq = 0;  // send counter, orders equal delivery times
  };
  struct Group {
    int needed = 0;
    std::vector<std::pair<SimTime, int>> entries;  // (entry time, rank)
  };

  /// Runs as a shard-engine event at delivery time, on the destination
  /// shard's thread.
  void deliver(int dst_rank, Mail m);
  void resume(int rank, SimTime charge);
  int barrier_needed(int participants) const;

  cluster::EthernetModel net_;
  std::vector<ShardState> shards_;
  // Drain scratch, reused so the steady-state drain allocates nothing:
  // the gathered flight and barrier-entry lists.
  std::vector<Flight> flights_;
  std::vector<BarrierEntry> entries_;
  std::vector<Task> tasks_;                    // by rank
  std::vector<Nic> nics_;                      // by node id
  std::vector<std::deque<Mail>> mailboxes_;    // by rank
  std::vector<std::optional<Waiter>> waiting_; // by rank
  std::map<int, Group> groups_;                // accumulated across drains
  int world_size_ = 0;
  FabricStats drain_stats_;  // barrier completions (counted at drain time)
};

}  // namespace ess::pdes
