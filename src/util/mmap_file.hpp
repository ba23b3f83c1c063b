// Read-only memory-mapped file: the zero-copy substrate under the ESST
// view/decode path (telemetry::EsstView).
//
// The whole file appears as one contiguous byte span backed by the page
// cache: no read() syscalls, no userspace copy into stream buffers, and —
// the property the parallel scan engine is built on — any number of
// threads can read the span concurrently without a shared file position
// or any locking. An std::ifstream per shard was the old design's fixed
// cost (open + header/index re-parse per shard); one MmapFile shared by
// every shard is the new design's whole point.
//
// On platforms without mmap (or when mmap itself fails — exotic
// filesystems, /proc files), the constructor falls back to reading the
// file into an owned heap buffer. Same span semantics, one copy, never a
// functional difference — callers cannot tell except through mapped().
// from_bytes() builds the same heap-buffer span from bytes already in
// memory, so an in-memory capture reads through the one ESST view too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ess::util {

class MmapFile {
 public:
  /// Empty (nothing mapped): data() == nullptr, size() == 0.
  MmapFile() = default;
  /// Map `path` read-only. Throws std::runtime_error when the file cannot
  /// be opened or its size cannot be determined; an empty file maps to an
  /// empty span, not an error.
  explicit MmapFile(const std::string& path);
  /// An owned heap-buffer copy of `bytes` (mapped() is false).
  static MmapFile from_bytes(std::string_view bytes);
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when backed by a real mapping (false: heap-buffer fallback).
  bool mapped() const { return mapped_; }

  /// madvise(MADV_WILLNEED) on [offset, offset+len): prefault the pages a
  /// worker is about to decode. No-op on the fallback.
  void advise_willneed(std::size_t offset, std::size_t len) const;

 private:
  void reset() noexcept;

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace ess::util
