// util::MmapFile — the zero-copy substrate under the ESST view path: span
// contents match the file bytes exactly, empty/missing files behave, and
// moves transfer ownership without double-frees.
#include "util/mmap_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ess::util {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/ess_mmap_" + std::to_string(::getpid()) +
         "_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

TEST(MmapFile, SpanMatchesFileBytes) {
  const auto path = tmp_path("bytes.bin");
  std::string bytes;
  for (int i = 0; i < 10'000; ++i) {
    bytes.push_back(static_cast<char>(i * 7 + (i >> 8)));
  }
  write_file(path, bytes);

  MmapFile m(path);
  ASSERT_EQ(m.size(), bytes.size());
  ASSERT_NE(m.data(), nullptr);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(std::memcmp(m.data(), bytes.data(), bytes.size()), 0);
  // Advice calls are hints; they must be safe at any range.
  m.advise_willneed(0, m.size());
  m.advise_willneed(5'000, 100);
  m.advise_willneed(m.size() + 10, 1);  // past the end: no-op, no crash
  std::remove(path.c_str());
}

TEST(MmapFile, DefaultIsEmpty) {
  MmapFile m;
  EXPECT_EQ(m.data(), nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.mapped());
  m.advise_willneed(0, 1);  // safe on nothing
}

TEST(MmapFile, EmptyFileMapsToEmptySpanNotError) {
  const auto path = tmp_path("empty.bin");
  write_file(path, "");
  MmapFile m(path);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  std::remove(path.c_str());
}

TEST(MmapFile, MissingFileThrows) {
  EXPECT_THROW(MmapFile(tmp_path("no_such_file.bin")), std::runtime_error);
}

TEST(MmapFile, MoveTransfersOwnership) {
  const auto path = tmp_path("move.bin");
  write_file(path, "abcdef");
  MmapFile a(path);
  const auto* p = a.data();

  MmapFile b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): spec'd
  EXPECT_EQ(a.size(), 0u);

  MmapFile c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(std::memcmp(c.data(), "abcdef", 6), 0);
  EXPECT_EQ(b.data(), nullptr);  // NOLINT(bugprone-use-after-move): spec'd
  std::remove(path.c_str());
}

TEST(MmapFile, SpanOutlivesTheDirectoryEntry) {
  // POSIX mapping semantics the shared-view scan relies on: the pages stay
  // valid for the mapping's lifetime even if the file is unlinked mid-scan.
  const auto path = tmp_path("unlink.bin");
  write_file(path, std::string(4096, 'x'));
  MmapFile m(path);
  std::remove(path.c_str());
  ASSERT_EQ(m.size(), 4096u);
  for (std::size_t i = 0; i < m.size(); i += 512) {
    EXPECT_EQ(m.data()[i], 'x');
  }
}

}  // namespace
}  // namespace ess::util
