// Demand-paged virtual memory for the simulated node.
//
// Address spaces are segment lists: file-backed segments (program text and
// initialized data, demand-loaded from the executable's blocks through the
// buffer cache, which coalesces the four 1 KB blocks of a page into one
// 4 KB read) and anonymous segments (zero-fill on first touch; dirty
// evictions go to swap as raw 4 KB writes).
//
// The page table is dense: each address space holds one PageState per page
// of its segments, in segment order, sized at create_address_space. A
// touch is a segment search (one or two segments) and an array index.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "block/buffer_cache.hpp"
#include "mm/frame_pool.hpp"
#include "mm/swap.hpp"
#include "util/flat_map.hpp"

namespace ess::mm {

enum class FaultKind : std::uint8_t {
  kNone = 0,   // page was resident
  kMinor = 1,  // satisfied without I/O (zero-fill)
  kMajor = 2,  // required a disk read (file page-in or swap-in)
};

struct VmStats {
  std::uint64_t touches = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t file_page_ins = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t evictions = 0;
};

struct Segment {
  VPage first_page = 0;
  std::uint64_t page_count = 0;
  bool file_backed = false;
  /// For file-backed segments: device block of the file's first byte; page
  /// p of the segment lives at file_start_block + p * 4 (pages are 4
  /// consecutive 1 KB blocks; the image files are allocated contiguously).
  block::BlockNo file_start_block = 0;
};

class Vm {
 public:
  /// Fired when a faulting access whose I/O was in flight can proceed.
  using Resume = driver::IdeDriver::Completion;

  Vm(FramePool& frames, SwapManager& swap, block::BufferCache& cache);

  /// Register a process address space.
  void create_address_space(Pid pid, std::vector<Segment> segments);
  /// Release every frame and swap slot of the space, page by page in
  /// segment order (ascending vpage for ascending segments).
  void destroy_address_space(Pid pid);

  /// Touch a virtual page. Returns the fault kind when the access can
  /// proceed at once: resident pages (kNone), zero-fill (kMinor), and file
  /// page-ins the buffer cache holds whole (kMajor). Returns nullopt when
  /// a disk read is in flight; `resume` fires at its completion and the
  /// fault was major. Eviction of a dirty victim issues its swap-out write
  /// first.
  std::optional<FaultKind> touch(Pid pid, VPage vpage, bool is_write,
                                 Resume resume);

  /// Resident set size of a process, in pages.
  std::uint64_t resident_pages(Pid pid) const;

  const VmStats& stats() const { return stats_; }
  FramePool& frames() { return frames_; }
  SwapManager& swap() { return swap_; }

 private:
  static constexpr FrameNo kNoFrame = ~FrameNo{0};
  static constexpr SwapSlot kNoSlot = ~SwapSlot{0};

  struct PageState {
    FrameNo frame = kNoFrame;  // kNoFrame: not present
    SwapSlot swap_slot = kNoSlot;
  };
  struct AddressSpace {
    std::vector<Segment> segments;
    /// Index in `pages` of each segment's first page.
    std::vector<std::size_t> page_base;
    std::vector<PageState> pages;
  };

  /// The segment holding `vpage` (the first, if several do), or nullptr.
  const Segment* find_segment(const AddressSpace& as, VPage vpage) const;
  PageState& page_state(AddressSpace& as, const Segment& seg, VPage vpage);
  FrameNo obtain_frame(Pid pid, VPage vpage);

  FramePool& frames_;
  SwapManager& swap_;
  block::BufferCache& cache_;
  util::FlatMap<Pid, AddressSpace> spaces_;
  VmStats stats_;
};

}  // namespace ess::mm
