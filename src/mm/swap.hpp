// The swap area: a fixed sector range of the disk, divided into 4 KB slots.
// Swap I/O bypasses the buffer cache (as in Linux 1.x) and therefore always
// appears as raw 4 KB physical requests — the paper's "paging" class.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "driver/ide_driver.hpp"
#include "mm/frame_pool.hpp"

namespace ess::mm {

using SwapSlot = std::uint32_t;

class SwapManager {
 public:
  /// The swap area covers sectors [start, start + slot_count * 8).
  SwapManager(driver::IdeDriver& drv, std::uint64_t start_sector,
              std::uint32_t slot_count);

  std::optional<SwapSlot> allocate();
  void free_slot(SwapSlot s);

  /// Write one page to a slot (fire-and-forget; the frame is reusable at
  /// once in this model — data is conceptually copied at issue).
  void swap_out(SwapSlot s);

  /// Read one page from a slot; `done` fires at completion.
  void swap_in(SwapSlot s, driver::IdeDriver::Completion done);

  std::uint32_t slots_total() const { return static_cast<std::uint32_t>(used_.size()); }
  std::uint32_t slots_used() const { return used_count_; }
  std::uint64_t swap_outs() const { return outs_; }
  std::uint64_t swap_ins() const { return ins_; }
  std::uint64_t start_sector() const { return start_sector_; }

 private:
  std::uint64_t slot_sector(SwapSlot s) const {
    return start_sector_ + std::uint64_t{s} * (kPageSize / 512);
  }

  driver::IdeDriver& drv_;
  std::uint64_t start_sector_;
  std::vector<bool> used_;
  std::uint32_t used_count_ = 0;
  std::uint32_t next_hint_ = 0;
  std::uint64_t outs_ = 0;
  std::uint64_t ins_ = 0;
};

}  // namespace ess::mm
