// The Beowulf interconnect: two parallel 10 Mb/s Ethernet channels
// (channel-bonded in the prototype). Used to cost communication phases and
// the PIOUS-lite parallel file service.
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace ess::cluster {

struct EthernetConfig {
  double bandwidth_mbit = 10.0;  // per channel
  int channels = 2;              // the prototype's dual Ethernet
  SimTime latency = usec(800);   // software + wire latency per message
  std::uint32_t mtu = 1500;      // bytes per frame
  double protocol_overhead = 0.10;  // headers, PVM packing
};

class EthernetModel {
 public:
  explicit EthernetModel(EthernetConfig cfg = {}) : cfg_(cfg) {}

  /// Time to move `bytes` point-to-point (both channels usable).
  SimTime transfer_time(std::uint64_t bytes) const;

  /// Time for an N-process barrier (dissemination: ceil(log2 n) rounds).
  SimTime barrier_time(int processes) const;

  const EthernetConfig& config() const { return cfg_; }

 private:
  double effective_bytes_per_us() const;
  EthernetConfig cfg_;
};

}  // namespace ess::cluster
