// The kernel's view of a message-passing fabric. The concrete
// implementation (pdes::WindowFabric) lives above the kernel; processes
// reach it through SendOp/RecvOp/BarrierOp.
#pragma once

#include <cstdint>

namespace ess::kernel {

class MessageFabric {
 public:
  virtual ~MessageFabric() = default;

  virtual void send(int src_rank, int dst_rank, std::uint64_t bytes,
                    int tag) = 0;
  /// Consume a matching message now; false = caller must block (and must
  /// then call wait_recv).
  virtual bool try_recv(int dst_rank, int src_rank, int tag) = 0;
  virtual void wait_recv(int dst_rank, int src_rank, int tag) = 0;
  /// True = barrier completed inline; false = caller blocks until release.
  /// `participants` 0 means every registered rank (the world).
  virtual bool enter_barrier(int rank, int group, int participants) = 0;
};

}  // namespace ess::kernel
