#include "mm/swap.hpp"

#include <stdexcept>

namespace ess::mm {

SwapManager::SwapManager(driver::IdeDriver& drv, std::uint64_t start_sector,
                         std::uint32_t slot_count)
    : drv_(drv), start_sector_(start_sector), used_(slot_count, false) {}

std::optional<SwapSlot> SwapManager::allocate() {
  const auto n = static_cast<std::uint32_t>(used_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    const SwapSlot s = (next_hint_ + i) % n;
    if (!used_[s]) {
      used_[s] = true;
      ++used_count_;
      next_hint_ = (s + 1) % n;
      return s;
    }
  }
  return std::nullopt;  // swap full
}

void SwapManager::free_slot(SwapSlot s) {
  if (!used_.at(s)) throw std::logic_error("SwapManager: double free");
  used_[s] = false;
  --used_count_;
}

void SwapManager::swap_out(SwapSlot s) {
  ++outs_;
  drv_.submit(slot_sector(s), kPageSize / 512, disk::Dir::kWrite);
}

void SwapManager::swap_in(SwapSlot s, driver::IdeDriver::Completion done) {
  ++ins_;
  drv_.submit(slot_sector(s), kPageSize / 512, disk::Dir::kRead,
              std::move(done));
}

}  // namespace ess::mm
