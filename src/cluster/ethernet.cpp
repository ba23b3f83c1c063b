#include "cluster/ethernet.hpp"

#include <cmath>

namespace ess::cluster {

double EthernetModel::effective_bytes_per_us() const {
  const double bits_per_us = cfg_.bandwidth_mbit * cfg_.channels;
  return bits_per_us / 8.0 / (1.0 + cfg_.protocol_overhead);
}

SimTime EthernetModel::transfer_time(std::uint64_t bytes) const {
  const auto frames = (bytes + cfg_.mtu - 1) / cfg_.mtu;
  const double wire =
      static_cast<double>(bytes) / effective_bytes_per_us();
  return cfg_.latency + static_cast<SimTime>(wire) +
         static_cast<SimTime>(frames) * 50;  // per-frame processing
}

SimTime EthernetModel::barrier_time(int processes) const {
  if (processes <= 1) return 0;
  const int rounds =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(processes))));
  return static_cast<SimTime>(rounds) * transfer_time(64);
}

}  // namespace ess::cluster
