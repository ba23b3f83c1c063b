#include "util/mmap_file.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ESS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ESS_HAVE_MMAP 0
#endif

namespace ess::util {

namespace {

/// Fallback: slurp the whole file into a heap buffer. Used when mmap is
/// unavailable or refuses the file; keeps the span contract identical.
std::uint8_t* read_whole_file(const std::string& path, std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("mmap_file: cannot open " + path);
  }
  auto* buf = new std::uint8_t[size > 0 ? size : 1];
  std::size_t got = 0;
  while (got < size) {
    const std::size_t n = std::fread(buf + got, 1, size - got, f);
    if (n == 0) break;
    got += n;
  }
  std::fclose(f);
  if (got != size) {
    delete[] buf;
    throw std::runtime_error("mmap_file: short read on " + path);
  }
  return buf;
}

std::size_t file_size_of(const std::string& path) {
#if ESS_HAVE_MMAP
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    throw std::runtime_error("mmap_file: cannot stat " + path);
  }
  return static_cast<std::size_t>(st.st_size);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("mmap_file: cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long pos = std::ftell(f);
  std::fclose(f);
  if (pos < 0) throw std::runtime_error("mmap_file: cannot size " + path);
  return static_cast<std::size_t>(pos);
#endif
}

}  // namespace

MmapFile::MmapFile(const std::string& path) {
  size_ = file_size_of(path);
  if (size_ == 0) return;  // empty span, nothing to map
#if ESS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping pins the pages, not the descriptor.
    ::close(fd);
    if (p != MAP_FAILED) {
      data_ = static_cast<std::uint8_t*>(p);
      mapped_ = true;
      return;
    }
  }
#endif
  data_ = read_whole_file(path, size_);
  mapped_ = false;
}

MmapFile MmapFile::from_bytes(std::string_view bytes) {
  MmapFile m;
  m.size_ = bytes.size();
  if (m.size_ > 0) {
    m.data_ = new std::uint8_t[m.size_];
    std::memcpy(m.data_, bytes.data(), m.size_);
  }
  return m;
}

MmapFile::~MmapFile() { reset(); }

void MmapFile::reset() noexcept {
  if (data_ != nullptr) {
#if ESS_HAVE_MMAP
    if (mapped_) {
      ::munmap(data_, size_);
    } else {
      delete[] data_;
    }
#else
    delete[] data_;
#endif
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

void MmapFile::advise_willneed(std::size_t offset, std::size_t len) const {
#if ESS_HAVE_MMAP
  if (!mapped_ || data_ == nullptr || offset >= size_) return;
  if (len > size_ - offset) len = size_ - offset;
  // madvise wants a page-aligned start; round down and stretch the length.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t misalign = offset % page;
  ::madvise(data_ + (offset - misalign), len + misalign, MADV_WILLNEED);
#endif
}

}  // namespace ess::util
