#include "mm/vm.hpp"

#include <stdexcept>

namespace ess::mm {

Vm::Vm(FramePool& frames, SwapManager& swap, block::BufferCache& cache)
    : frames_(frames), swap_(swap), cache_(cache) {}

void Vm::create_address_space(Pid pid, std::vector<Segment> segments) {
  if (spaces_.find(pid) != nullptr) {
    throw std::logic_error("Vm: pid already mapped");
  }
  AddressSpace& as = spaces_[pid];
  std::size_t pages = 0;
  for (const Segment& seg : segments) {
    as.page_base.push_back(pages);
    pages += seg.page_count;
  }
  as.pages.resize(pages);
  as.segments = std::move(segments);
}

void Vm::destroy_address_space(Pid pid) {
  AddressSpace* as = spaces_.find(pid);
  if (as == nullptr) return;
  for (const PageState& ps : as->pages) {
    if (ps.frame != kNoFrame) frames_.release(ps.frame);
    if (ps.swap_slot != kNoSlot) swap_.free_slot(ps.swap_slot);
  }
  spaces_.erase(pid);
}

const Segment* Vm::find_segment(const AddressSpace& as, VPage vpage) const {
  for (const auto& seg : as.segments) {
    if (vpage >= seg.first_page && vpage < seg.first_page + seg.page_count) {
      return &seg;
    }
  }
  return nullptr;
}

Vm::PageState& Vm::page_state(AddressSpace& as, const Segment& seg,
                              VPage vpage) {
  const auto i = static_cast<std::size_t>(&seg - as.segments.data());
  return as.pages[as.page_base[i] + (vpage - seg.first_page)];
}

FrameNo Vm::obtain_frame(Pid pid, VPage vpage) {
  if (const auto f = frames_.allocate(pid, vpage)) return *f;

  // Memory pressure: evict a victim (second-chance clock), swapping it out
  // if it carries dirty anonymous data.
  const auto victim = frames_.pick_victim();
  if (!victim) throw std::logic_error("Vm: no evictable frame");
  const Frame fr = frames_.frame(*victim);
  ++stats_.evictions;

  AddressSpace& vas = *spaces_.find(fr.pid);
  PageState& vps = page_state(vas, *find_segment(vas, fr.vpage), fr.vpage);
  if (fr.dirty) {
    // Written pages must be preserved in swap. Clean pages are dropped:
    // file-backed ones can be re-read from the file, never-written
    // anonymous ones are re-zero-filled, and previously-swapped clean
    // pages still have a valid copy in their slot.
    if (vps.swap_slot == kNoSlot) {
      const auto slot = swap_.allocate();
      if (!slot) throw std::runtime_error("Vm: swap space exhausted");
      vps.swap_slot = *slot;
    }
    swap_.swap_out(vps.swap_slot);
    ++stats_.swap_outs;
  }
  vps.frame = kNoFrame;
  frames_.release(*victim);

  const auto f = frames_.allocate(pid, vpage);
  if (!f) throw std::logic_error("Vm: allocation failed after eviction");
  return *f;
}

std::optional<FaultKind> Vm::touch(Pid pid, VPage vpage, bool is_write,
                                   Resume resume) {
  ++stats_.touches;
  AddressSpace* as = spaces_.find(pid);
  if (as == nullptr) throw std::out_of_range("Vm: touch of an unmapped pid");
  const Segment* seg = find_segment(*as, vpage);
  if (seg == nullptr) {
    throw std::out_of_range("Vm: touch outside any segment (segfault)");
  }

  // Eviction only rewrites another page's state, so the reference holds.
  PageState& ps = page_state(*as, *seg, vpage);
  if (ps.frame != kNoFrame) {
    frames_.mark_referenced(ps.frame, is_write);
    return FaultKind::kNone;
  }

  const FrameNo f = obtain_frame(pid, vpage);
  ps.frame = f;
  frames_.mark_referenced(f, is_write);

  if (ps.swap_slot != kNoSlot) {
    // Page went to swap earlier: swap it back in (raw 4 KB read).
    ++stats_.major_faults;
    ++stats_.swap_ins;
    swap_.swap_in(ps.swap_slot, std::move(resume));
    return std::nullopt;
  }
  if (seg->file_backed) {
    // Demand-load from the executable/image file through the buffer cache:
    // one page = 4 consecutive 1 KB blocks, coalesced to a 4 KB request
    // when none are cached.
    ++stats_.major_faults;
    ++stats_.file_page_ins;
    const block::BlockNo first =
        seg->file_start_block + (vpage - seg->first_page) * (kPageSize / 1024);
    if (cache_.fetch(first, kPageSize / 1024, std::move(resume))) {
      return std::nullopt;
    }
    return FaultKind::kMajor;
  }
  // Anonymous first touch: zero-fill, no I/O.
  ++stats_.minor_faults;
  return FaultKind::kMinor;
}

std::uint64_t Vm::resident_pages(Pid pid) const {
  const AddressSpace* as = spaces_.find(pid);
  if (as == nullptr) return 0;
  std::uint64_t n = 0;
  for (const PageState& ps : as->pages) {
    if (ps.frame != kNoFrame) ++n;
  }
  return n;
}

}  // namespace ess::mm
