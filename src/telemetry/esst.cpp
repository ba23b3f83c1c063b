#include "telemetry/esst.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <future>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "telemetry/esst_codec.hpp"

namespace ess::telemetry {

// The wire format itself — constants, scalar packing, varint/record codec,
// header/trailer/index parsing — lives in esst_codec.hpp, shared with the
// reader, EsstView (esst_view.cpp).
using namespace codec;

namespace {

/// Write or throw, carrying where and why: `ctx` is the writer's error
/// context (the output path, when known) and errno names the OS-level
/// cause — "esst: write failed (cluster.esst): No space left on device"
/// instead of a bare "write failed" from the middle of a 1024-node merge.
[[noreturn]] void throw_write_failed(const std::string& ctx, int err) {
  std::string msg = "esst: write failed";
  if (!ctx.empty()) msg += " (" + ctx + ")";
  if (err != 0) {
    msg += ": ";
    msg += std::strerror(err);
  }
  throw std::runtime_error(msg);
}

void write_bytes(std::ostream& os, const void* p, std::size_t n,
                 const std::string& ctx) {
  errno = 0;  // a stale value must not masquerade as this write's cause
  os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!os) throw_write_failed(ctx, errno);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  // Slicing-by-8: eight derived tables let the loop fold eight input bytes
  // per iteration — one table load per byte still, but 1/8th the loop
  // carried dependency length of the classic bytewise form, which is the
  // difference between ~400 MB/s and multi-GB/s on the verify path. Same
  // polynomial (IEEE 802.3 / zlib, reflected 0xedb88320), same pre/post
  // conditioning, bit-identical results for every input and seed.
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t c = t[s - 1][i];
        t[s][i] = t[0][c & 0xff] ^ (c >> 8);
      }
    }
    return t;
  }();
  const auto& t = tables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  // Word loads composed byte-by-byte (get_u32) stay endian-correct and
  // alignment-safe; compilers collapse them to single loads on LE targets.
  while (len >= 8) {
    const std::uint32_t lo = c ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------- writer

namespace {

/// The chunk CRC as it goes on the wire: payload first, then the 24-byte
/// footer summary chained on, so a corrupted count or range is also
/// detected. Computed where the payload is encoded — on a worker in
/// offload mode — since it is by far the most expensive part of framing.
std::uint32_t chunk_wire_crc(const ChunkInfo& info,
                             const std::uint8_t* payload, std::size_t len) {
  std::uint8_t ftr[kChunkFooterBytes];
  put_chunk_footer_summary(ftr, info);
  return crc32(ftr, kChunkFooterBytes - 4, crc32(payload, len));
}

}  // namespace

/// One in-flight encode job: a chunk's raw records, its encoded payload,
/// and the summary + CRC the worker computed. Buffers live for the whole
/// merge and swap with the writer's batch, so steady state allocates
/// nothing.
struct EsstWriter::EncodeSlot {
  std::vector<trace::Record> recs;
  std::vector<std::uint8_t> payload;
  std::size_t payload_len = 0;
  ChunkInfo info;
  std::uint32_t crc = 0;
  SimTime max_ts = 0;
  std::future<void> done;
  bool pending = false;
};

EsstWriter::EsstWriter(std::ostream& os, EsstMeta meta,
                       std::string error_context)
    : os_(os), meta_(std::move(meta)),
      error_context_(std::move(error_context)) {
  if (meta_.records_per_chunk == 0) meta_.records_per_chunk = 1;
  batch_.reserve(meta_.records_per_chunk);
  std::uint8_t h[kHeaderBytes] = {};
  std::memcpy(h, kMagic, sizeof kMagic);
  put_u16(h + 8, meta_.multi_node ? kVersionMulti : kVersion);
  put_u16(h + 10, static_cast<std::uint16_t>(kHeaderBytes));
  put_u32(h + 12, static_cast<std::uint32_t>(meta_.node_id));
  put_u64(h + 16, meta_.total_sectors);
  put_u32(h + 24, meta_.sector_bytes);
  put_u32(h + 28, meta_.records_per_chunk);
  put_u64(h + 32, meta_.seed);
  put_u64(h + 40, meta_.ram_bytes);
  const auto name_len =
      std::min<std::size_t>(meta_.experiment.size(), kNameBytes);
  put_u32(h + 48, static_cast<std::uint32_t>(name_len));
  std::memcpy(h + 52, meta_.experiment.data(), name_len);
  put_u32(h + kHeaderBytes - 4, crc32(h, kHeaderBytes - 4));
  write_bytes(os_, h, kHeaderBytes, error_context_);
  offset_ = kHeaderBytes;
}

EsstWriter::~EsstWriter() {
  try {
    finish();
  } catch (...) {
    // A destructor cannot usefully report a write failure; finish() directly
    // to observe errors.
  }
  // If finish() threw mid-drain, in-flight encode jobs still reference the
  // slot buffers about to be destroyed — wait them out (without writing).
  abandon_slots();
}

void EsstWriter::set_encode_pool(exec::ThreadPool* pool) {
  if (total_records_ != 0 || !index_.empty()) {
    throw std::logic_error("esst: set_encode_pool after first append");
  }
  pool_ = pool;
  if (pool_ != nullptr && slots_.empty()) {
    // Two slots: one encoding while the previous one drains to the stream —
    // deeper pipelines only add memory, the stream write is the sync point.
    slots_.resize(2);
  }
}

void EsstWriter::append(const trace::Record& r) {
  if (finished_) throw std::logic_error("esst: append after finish");
  batch_.push_back(r);
  ++total_records_;
  if (batch_.size() >= meta_.records_per_chunk) close_chunk();
}

void EsstWriter::append(const trace::Record* r, std::size_t n) {
  if (finished_) throw std::logic_error("esst: append after finish");
  while (n > 0) {
    const std::size_t take =
        std::min<std::size_t>(n, meta_.records_per_chunk - batch_.size());
    batch_.insert(batch_.end(), r, r + take);
    total_records_ += take;
    r += take;
    n -= take;
    if (batch_.size() >= meta_.records_per_chunk) close_chunk();
  }
}

void EsstWriter::close_chunk() {
  if (batch_.empty()) return;
  if (pool_ != nullptr) {
    submit_chunk();
  } else {
    flush_chunk();
  }
}

void EsstWriter::flush_chunk() {
  ChunkInfo info;
  const auto enc = encode_payload_into(batch_.data(), batch_.size(),
                                       meta_.multi_node, payload_, info);
  max_ts_ = std::max(max_ts_, enc.max_ts);
  write_chunk(info, payload_.data(), enc.payload_len,
              chunk_wire_crc(info, payload_.data(), enc.payload_len));
  batch_.clear();
}

void EsstWriter::submit_chunk() {
  auto& s = slots_[next_slot_];
  next_slot_ = (next_slot_ + 1) % slots_.size();
  // The ring is the ordering mechanism: a slot is written (and only then
  // reused) in the order chunks were submitted, so offloaded output is
  // byte-identical to the serial path.
  retire_slot(s);
  s.recs.swap(batch_);
  batch_.clear();
  const bool multi = meta_.multi_node;
  auto task = std::make_shared<std::packaged_task<void()>>([&s, multi] {
    const auto enc =
        encode_payload_into(s.recs.data(), s.recs.size(), multi, s.payload,
                            s.info);
    s.payload_len = enc.payload_len;
    s.max_ts = enc.max_ts;
    s.crc = chunk_wire_crc(s.info, s.payload.data(), enc.payload_len);
  });
  s.done = task->get_future();
  s.pending = true;
  pool_->submit([task] { (*task)(); });
}

void EsstWriter::retire_slot(EncodeSlot& s) {
  if (!s.pending) return;
  s.done.get();
  s.pending = false;
  max_ts_ = std::max(max_ts_, s.max_ts);
  write_chunk(s.info, s.payload.data(), s.payload_len, s.crc);
  s.recs.clear();
}

void EsstWriter::abandon_slots() noexcept {
  for (auto& s : slots_) {
    if (s.pending) {
      try {
        s.done.wait();
      } catch (...) {
      }
      s.pending = false;
    }
  }
}

void EsstWriter::write_chunk(ChunkInfo info, const std::uint8_t* payload,
                             std::size_t len, std::uint32_t crc) {
  info.offset = offset_;
  std::uint8_t hdr[kChunkHeaderBytes];
  put_u32(hdr, kChunkMagic);
  put_u32(hdr + 4, static_cast<std::uint32_t>(len));
  write_bytes(os_, hdr, sizeof hdr, error_context_);
  write_bytes(os_, payload, len, error_context_);

  std::uint8_t ftr[kChunkFooterBytes];
  put_chunk_footer_summary(ftr, info);
  put_u32(ftr + kChunkFooterBytes - 4, crc);
  write_bytes(os_, ftr, sizeof ftr, error_context_);

  offset_ += kChunkHeaderBytes + len + kChunkFooterBytes;
  index_.push_back(info);
}

void EsstWriter::finish(SimTime duration) {
  if (finished_) return;
  close_chunk();
  // Drain the offload ring in submission order (oldest slot first).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    retire_slot(slots_[(next_slot_ + i) % slots_.size()]);
  }
  const std::uint64_t index_offset = offset_;
  std::vector<std::uint8_t> entries;
  entries.reserve(index_.size() * kIndexEntryBytes);
  for (const auto& c : index_) {
    std::uint8_t e[kIndexEntryBytes];
    put_u64(e, c.offset);
    put_u32(e + 8, c.records);
    put_u64(e + 12, c.ts_first);
    put_u64(e + 20, c.ts_last);
    put_u32(e + 28, c.sector_min);
    put_u32(e + 32, c.sector_max);
    entries.insert(entries.end(), e, e + sizeof e);
  }
  write_bytes(os_, entries.data(), entries.size(), error_context_);

  std::uint8_t t[kTrailer2Bytes];
  put_u32(t, static_cast<std::uint32_t>(index_.size()));
  put_u32(t + 4, crc32(entries.data(), entries.size()));
  put_u64(t + 8, duration > 0 ? duration : max_ts_);
  put_u64(t + 16, total_records_);
  put_u64(t + 24, index_offset);
  put_u64(t + 32, dropped_);
  std::memcpy(t + 40, kIndexMagic2, sizeof kIndexMagic2);
  write_bytes(os_, t, sizeof t, error_context_);
  errno = 0;
  os_.flush();
  // The final flush is the last chance to see a buffered failure; report
  // it with the same context a mid-stream write would carry.
  if (!os_) throw_write_failed(error_context_, errno);
  finished_ = true;
}

// ---------------------------------------------------------------- file sink

struct EsstFileSink::Impl {
  // Owned-file mode: a wide stream buffer (vs. the 8 KB libstdc++ default)
  // so a long capture syscalls once per ~quarter-MB of trace, not once per
  // chunk flush. Must be installed before open() to take effect.
  static constexpr std::size_t kFileBufBytes = 256 * 1024;
  std::vector<char> iobuf;
  std::ofstream file;         // owned stream (path constructor)
  std::ostream* os = nullptr; // the stream the writer targets
  std::unique_ptr<EsstWriter> writer;
  std::uint64_t records = 0;  // count survives a writer teardown on failure
  bool failed = false;
  std::string error;

  // Latch a failure: record the message, drop the writer (no more bytes are
  // attempted), and keep the sink alive so the drain path never sees the
  // exception. The partial file stays salvageable up to its last complete
  // chunk.
  void latch(const char* where, const std::exception& e) {
    failed = true;
    error = std::string(where) + ": " + e.what();
    writer.reset();
  }
};

EsstFileSink::EsstFileSink(const std::string& path, EsstMeta meta)
    : impl_(std::make_unique<Impl>()) {
  impl_->iobuf.resize(Impl::kFileBufBytes);
  impl_->file.rdbuf()->pubsetbuf(impl_->iobuf.data(),
                                 static_cast<std::streamsize>(
                                     impl_->iobuf.size()));
  impl_->file.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->file) throw std::runtime_error("esst: cannot open " + path);
  impl_->os = &impl_->file;
  // The writer knows the path it is writing, so a failure mid-capture names
  // the file (plus errno) instead of a bare "write failed".
  impl_->writer =
      std::make_unique<EsstWriter>(*impl_->os, std::move(meta), path);
}

EsstFileSink::EsstFileSink(std::ostream& os, EsstMeta meta)
    : impl_(std::make_unique<Impl>()) {
  impl_->os = &os;
  impl_->writer = std::make_unique<EsstWriter>(*impl_->os, std::move(meta));
}

EsstFileSink::~EsstFileSink() = default;

void EsstFileSink::on_record(const trace::Record& r) {
  if (!impl_->writer) return;
  try {
    impl_->writer->append(r);
    impl_->records = impl_->writer->records_written();
  } catch (const std::exception& e) {
    impl_->latch("esst sink: append", e);
  }
}

void EsstFileSink::on_records(const trace::Record* r, std::size_t n) {
  if (!impl_->writer) return;
  try {
    impl_->writer->append(r, n);
    impl_->records = impl_->writer->records_written();
  } catch (const std::exception& e) {
    impl_->records = impl_->writer->records_written();
    impl_->latch("esst sink: append", e);
  }
}

void EsstFileSink::on_finish(SimTime duration) {
  if (!impl_->writer) return;
  try {
    impl_->writer->finish(duration);
  } catch (const std::exception& e) {
    impl_->latch("esst sink: finish", e);
  }
}

void EsstFileSink::on_drops(std::uint64_t dropped) {
  if (impl_->writer) impl_->writer->set_dropped_records(dropped);
}

std::uint64_t EsstFileSink::records_written() const {
  return impl_->writer ? impl_->writer->records_written() : impl_->records;
}

bool EsstFileSink::failed() const { return impl_->failed; }

const std::string& EsstFileSink::error() const { return impl_->error; }

// ---------------------------------------------------------------- wrappers

void write_esst(const trace::TraceSet& ts, std::ostream& os, EsstMeta meta) {
  if (meta.experiment.empty()) meta.experiment = ts.experiment();
  if (meta.node_id == 0) meta.node_id = ts.node_id();
  EsstWriter w(os, std::move(meta));
  w.append(ts.records().data(), ts.records().size());
  w.finish(ts.duration());
}

void write_esst_file(const trace::TraceSet& ts, const std::string& path,
                     EsstMeta meta) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("esst: cannot open " + path);
  write_esst(ts, f, std::move(meta));
}

bool is_esst(std::istream& is) {
  const auto pos = is.tellg();
  char m[8] = {};
  is.read(m, sizeof m);
  const bool ok =
      is.gcount() == sizeof m && std::memcmp(m, kMagic, sizeof m) == 0;
  is.clear();
  is.seekg(pos);
  return ok;
}

}  // namespace ess::telemetry
