#include "telemetry/esst.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

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

// ---------------------------------------------------------------- writer

namespace {

/// The chunk CRC as it goes on the wire: payload first, then the 24-byte
/// footer summary chained on, so a corrupted count or range is also
/// detected.
std::uint32_t chunk_wire_crc(const ChunkInfo& info,
                             const std::uint8_t* payload, std::size_t len) {
  std::uint8_t ftr[kChunkFooterBytes];
  put_chunk_footer_summary(ftr, info);
  return crc32(ftr, kChunkFooterBytes - 4, crc32(payload, len));
}

}  // namespace

EsstWriter::EsstWriter(std::ostream& os, EsstMeta meta,
                       std::string error_context)
    : EsstWriter(std::move(meta)) {
  os_ = &os;
  error_context_ = std::move(error_context);
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
  put(h, kHeaderBytes);
  offset_ = kHeaderBytes;
}

EsstWriter::EsstWriter(EsstMeta meta) : meta_(std::move(meta)) {
  if (meta_.records_per_chunk == 0) meta_.records_per_chunk = 1;
  batch_.reserve(meta_.records_per_chunk);
}

EsstWriter::~EsstWriter() {
  try {
    finish();
  } catch (...) {
    // A destructor cannot usefully report a write failure; finish() directly
    // to observe errors.
  }
}

void EsstWriter::append(const trace::Record& r) {
  if (finished_) throw std::logic_error("esst: append after finish");
  batch_.push_back(r);
  ++total_records_;
  if (batch_.size() >= meta_.records_per_chunk) flush_chunk();
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
    if (batch_.size() >= meta_.records_per_chunk) flush_chunk();
  }
}

FramedChunks EsstWriter::take_chunks() {
  FramedChunks out = std::move(framed_);
  out.index = std::move(index_);
  out.max_ts = max_ts_;
  framed_ = FramedChunks();
  index_.clear();
  offset_ = 0;
  return out;
}

void EsstWriter::append_chunks(const FramedChunks& chunks) {
  if (finished_) throw std::logic_error("esst: append after finish");
  if (!batch_.empty()) {
    throw std::logic_error("esst: append_chunks inside an open chunk");
  }
  put(chunks.bytes.data(), chunks.bytes.size());
  for (ChunkInfo info : chunks.index) {
    info.offset += offset_;
    total_records_ += info.records;
    index_.push_back(info);
  }
  offset_ += chunks.bytes.size();
  max_ts_ = std::max(max_ts_, chunks.max_ts);
}

void EsstWriter::flush_chunk() {
  if (batch_.empty()) return;
  ChunkInfo info;
  const auto enc = encode_payload_into(batch_.data(), batch_.size(),
                                       meta_.multi_node, payload_, info);
  max_ts_ = std::max(max_ts_, enc.max_ts);
  write_chunk(info, payload_.data(), enc.payload_len,
              chunk_wire_crc(info, payload_.data(), enc.payload_len));
  batch_.clear();
}

void EsstWriter::put(const void* p, std::size_t n) {
  if (os_ != nullptr) {
    write_bytes(*os_, p, n, error_context_);
  } else {
    const auto* b = static_cast<const std::uint8_t*>(p);
    framed_.bytes.insert(framed_.bytes.end(), b, b + n);
  }
}

void EsstWriter::write_chunk(ChunkInfo info, const std::uint8_t* payload,
                             std::size_t len, std::uint32_t crc) {
  info.offset = offset_;
  std::uint8_t hdr[kChunkHeaderBytes];
  put_u32(hdr, kChunkMagic);
  put_u32(hdr + 4, static_cast<std::uint32_t>(len));
  put(hdr, sizeof hdr);
  put(payload, len);

  std::uint8_t ftr[kChunkFooterBytes];
  put_chunk_footer_summary(ftr, info);
  put_u32(ftr + kChunkFooterBytes - 4, crc);
  put(ftr, sizeof ftr);

  offset_ += kChunkHeaderBytes + len + kChunkFooterBytes;
  index_.push_back(info);
}

void EsstWriter::finish(SimTime duration) {
  if (finished_) return;
  flush_chunk();
  finished_ = true;
  if (os_ == nullptr) return;  // stream-less: the chunks are all there is
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
  put(entries.data(), entries.size());

  std::uint8_t t[kTrailer2Bytes];
  put_u32(t, static_cast<std::uint32_t>(index_.size()));
  put_u32(t + 4, crc32(entries.data(), entries.size()));
  put_u64(t + 8, duration > 0 ? duration : max_ts_);
  put_u64(t + 16, total_records_);
  put_u64(t + 24, index_offset);
  put_u64(t + 32, dropped_);
  std::memcpy(t + 40, kIndexMagic2, sizeof kIndexMagic2);
  put(t, sizeof t);
  errno = 0;
  os_->flush();
  // The final flush is the last chance to see a buffered failure; report
  // it with the same context a mid-stream write would carry.
  if (!*os_) throw_write_failed(error_context_, errno);
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
