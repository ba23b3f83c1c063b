// ESST wire-format codec: the one place the byte layout lives.
//
// The reader (`EsstView`, esst_view.cpp) and the writer (esst.cpp) decode
// and encode through these helpers, so the two sides cannot drift: one
// header and trailer layout, one set of varint rules, one record codec.
//
// Decode is the analysis hot loop (a multi-GB capture is nothing but these
// varints), so it comes in two forms:
//   * the checked form: every byte access bounds-tested — used near the
//     end of a payload and by anything handling untrusted lengths;
//   * the fast form: caller guarantees `kMaxRecordBytes` readable bytes,
//     so the common 1- and 2-byte varints decode with one or two loads and
//     a single well-predicted branch, no per-byte bounds checks.
// `decode_payload_into` runs the fast form while a worst-case record still
// fits in the remaining payload and drops to the checked form for the
// tail, which keeps the loop branch-light without ever reading past the
// span.
//
// This header is telemetry-internal: include it from telemetry/*.cpp, not
// from public headers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "telemetry/esst.hpp"
#include "trace/record.hpp"

namespace ess::telemetry::codec {

inline constexpr char kMagic[8] = {'E', 'S', 'S', 'T', '0', '0', '0', '1'};
inline constexpr char kIndexMagic1[8] = {'E', 'S', 'S', 'T', 'I', 'D', 'X', '1'};
inline constexpr char kIndexMagic2[8] = {'E', 'S', 'S', 'T', 'I', 'D', 'X', '2'};
inline constexpr std::uint32_t kChunkMagic = 0x4b4e4843;  // "CHNK"
inline constexpr std::uint16_t kVersion = 1;       // single-node stream
inline constexpr std::uint16_t kVersionMulti = 2;  // adds a node delta
inline constexpr std::size_t kHeaderBytes = 128;
inline constexpr std::size_t kNameBytes = 72;
inline constexpr std::size_t kChunkHeaderBytes = 8;   // magic + payload size
inline constexpr std::size_t kChunkFooterBytes = 28;  // count, ts x2,
                                                      // sector x2, crc
inline constexpr std::size_t kIndexEntryBytes = 36;
inline constexpr std::size_t kTrailer1Bytes = 40;  // legacy, no drop count
inline constexpr std::size_t kTrailer2Bytes = 48;  // adds capture drops

/// Longest single varint (64 bits in 7-bit groups).
inline constexpr std::size_t kMaxVarintBytes = 10;
/// Worst-case encoded record: ts/sector/size/node svarints + flags uvarint.
inline constexpr std::size_t kMaxRecordBytes = 5 * kMaxVarintBytes;

// ---- little-endian scalar packing (explicit: the header is a wire format,
// not a memory dump, so it stays valid across compilers and platforms).

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
// Loads are one unaligned memcpy, byte-swapped on big-endian hosts: a
// byte-composing loop is not reliably folded into one load inside hot
// loops (the CRC table loop, the framing walk).
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// ---- varint / zigzag ------------------------------------------------------

inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  // zigzag: small magnitudes of either sign stay short.
  put_uvarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                       static_cast<std::uint64_t>(v >> 63));
}

inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Fast encode: caller guarantees kMaxVarintBytes writable at `p`. The
/// mirror of get_uvarint_fast — the 1-byte case (almost every delta after
/// zigzag) is one store and one predictable branch, 2 bytes costs one more
/// of each, and only genuinely wide values take the continuation loop.
/// Emits exactly the bytes put_uvarint would (canonical LEB128), so the
/// two encoders can never produce different files. Returns the byte after
/// the varint.
inline std::uint8_t* put_uvarint_fast(std::uint8_t* p, std::uint64_t v) {
  if (v < 0x80) {
    p[0] = static_cast<std::uint8_t>(v);
    return p + 1;
  }
  p[0] = static_cast<std::uint8_t>(v) | 0x80;
  v >>= 7;
  if (v < 0x80) {
    p[1] = static_cast<std::uint8_t>(v);
    return p + 2;
  }
  p[1] = static_cast<std::uint8_t>(v) | 0x80;
  v >>= 7;
  p += 2;
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

inline std::uint8_t* put_svarint_fast(std::uint8_t* p, std::int64_t v) {
  return put_uvarint_fast(p, (static_cast<std::uint64_t>(v) << 1) ^
                                 static_cast<std::uint64_t>(v >> 63));
}

/// Checked decode: safe at any distance from the end of the span.
inline bool get_uvarint(const std::uint8_t* p, std::size_t len,
                        std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= len) return false;
    const std::uint8_t b = p[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;  // overlong
}

inline bool get_svarint(const std::uint8_t* p, std::size_t len,
                        std::size_t& pos, std::int64_t& v) {
  std::uint64_t u = 0;
  if (!get_uvarint(p, len, pos, u)) return false;
  v = unzigzag(u);
  return true;
}

/// Fast decode: caller guarantees kMaxVarintBytes readable at `p`. The
/// 1-byte case (almost every delta after zigzag) is one load and one
/// predictable branch; 2 bytes costs one more of each; longer encodings
/// take the unrolled continuation loop. Returns the byte after the varint,
/// or nullptr for an overlong (>10 byte) encoding.
inline const std::uint8_t* get_uvarint_fast(const std::uint8_t* p,
                                            std::uint64_t& v) {
  std::uint64_t b = p[0];
  if ((b & 0x80) == 0) {
    v = b;
    return p + 1;
  }
  std::uint64_t r = b & 0x7f;
  b = p[1];
  r |= (b & 0x7f) << 7;
  if ((b & 0x80) == 0) {
    v = r;
    return p + 2;
  }
  p += 2;
  for (int shift = 14; shift < 70; shift += 7) {
    b = *p++;
    r |= (b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      v = r;
      return p;
    }
  }
  return nullptr;  // overlong
}

inline const std::uint8_t* get_svarint_fast(const std::uint8_t* p,
                                            std::int64_t& v) {
  std::uint64_t u = 0;
  p = get_uvarint_fast(p, u);
  if (p != nullptr) v = unzigzag(u);
  return p;
}

// ---- record encode / decode ----------------------------------------------

/// What encode_payload_into measured while encoding: the payload's length
/// within the (worst-case-sized) output buffer, and the running max
/// timestamp of the batch — the writer's trailer duration wants the max
/// over *all* records, which for unsorted streams is not ts_last.
struct EncodeResult {
  std::size_t payload_len = 0;
  SimTime max_ts = 0;
};

namespace detail {

/// The encode hot loop, monomorphized per format version like its decode
/// twin below. `out` is kept at worst-case size (capacity is reused across
/// chunks and never shrunk, so steady state touches no allocator and pays
/// no resize memset); the real payload length comes back in the result.
/// Also fills `info`'s footer summary (records/ts/sector ranges) in the
/// same pass, so the caller serializes the footer without re-walking the
/// batch.
template <bool MultiNode>
inline EncodeResult encode_payload_impl(const trace::Record* recs,
                                        std::size_t n,
                                        std::vector<std::uint8_t>& out,
                                        ChunkInfo& info) {
  constexpr std::size_t per_record_max =
      kMaxVarintBytes * (MultiNode ? 5 : 4);
  EncodeResult res;
  info.records = static_cast<std::uint32_t>(n);
  if (n == 0) {
    info.ts_first = info.ts_last = 0;
    info.sector_min = info.sector_max = 0;
    return res;
  }
  if (out.size() < per_record_max * n) out.resize(per_record_max * n);
  info.ts_first = recs[0].timestamp;
  info.ts_last = recs[n - 1].timestamp;
  info.sector_min = recs[0].sector;
  info.sector_max = recs[0].sector;
  std::uint8_t* q = out.data();
  trace::Record prev;  // chunks decode independently: delta base resets
  for (std::size_t i = 0; i < n; ++i) {
    const trace::Record& r = recs[i];
    // Timestamp deltas wrap modulo 2^64 (no signed overflow at extreme
    // timestamps); the decoder adds them back the same way.
    q = put_svarint_fast(q, static_cast<std::int64_t>(r.timestamp -
                                                      prev.timestamp));
    q = put_svarint_fast(q, static_cast<std::int64_t>(r.sector) -
                                static_cast<std::int64_t>(prev.sector));
    q = put_svarint_fast(q, static_cast<std::int64_t>(r.size_bytes) -
                                static_cast<std::int64_t>(prev.size_bytes));
    q = put_uvarint_fast(q, (static_cast<std::uint64_t>(r.outstanding) << 1) |
                                (r.is_write ? 1u : 0u));
    if constexpr (MultiNode) {
      q = put_svarint_fast(q, static_cast<std::int64_t>(r.node) -
                                  static_cast<std::int64_t>(prev.node));
    }
    prev = r;
    info.sector_min = std::min(info.sector_min, r.sector);
    info.sector_max = std::max(info.sector_max, r.sector);
    res.max_ts = std::max(res.max_ts, r.timestamp);
  }
  res.payload_len = static_cast<std::size_t>(q - out.data());
  return res;
}

}  // namespace detail

/// Encode a whole record batch into one chunk payload. `out` grows to the
/// batch's worst case once and is then reused verbatim across chunks — the
/// valid bytes are [0, result.payload_len), not out.size(). Byte-for-byte
/// identical to the original record-at-a-time put_svarint loop.
inline EncodeResult encode_payload_into(const trace::Record* recs,
                                        std::size_t n, bool multi_node,
                                        std::vector<std::uint8_t>& out,
                                        ChunkInfo& info) {
  return multi_node ? detail::encode_payload_impl<true>(recs, n, out, info)
                    : detail::encode_payload_impl<false>(recs, n, out, info);
}

/// Serialize a chunk footer's 24-byte summary (everything but the CRC slot)
/// from its index entry.
inline void put_chunk_footer_summary(std::uint8_t* ftr,
                                     const ChunkInfo& info) {
  put_u32(ftr, info.records);
  put_u64(ftr + 4, info.ts_first);
  put_u64(ftr + 12, info.ts_last);
  put_u32(ftr + 20, info.sector_min);
  put_u32(ftr + 24, info.sector_max);
}

namespace detail {

[[noreturn]] inline void throw_underrun() {
  throw std::runtime_error("esst: chunk payload underruns record count");
}

inline trace::Record apply_deltas(const trace::Record& prev, std::int64_t dts,
                                  std::int64_t dsec, std::int64_t dsize,
                                  std::uint64_t flags, std::int64_t dnode) {
  // Unsigned sums: the same bits as signed ones wherever those are
  // defined, and no overflow on whatever deltas a damaged payload holds.
  trace::Record r;
  r.timestamp = prev.timestamp + static_cast<std::uint64_t>(dts);
  r.sector = static_cast<std::uint32_t>(prev.sector +
                                        static_cast<std::uint64_t>(dsec));
  r.size_bytes = static_cast<std::uint32_t>(
      prev.size_bytes + static_cast<std::uint64_t>(dsize));
  r.is_write = static_cast<std::uint8_t>(flags & 1);
  r.outstanding = static_cast<std::uint16_t>(flags >> 1);
  r.node = static_cast<std::int32_t>(static_cast<std::uint32_t>(prev.node) +
                                     static_cast<std::uint32_t>(dnode));
  return r;
}

/// The hot loop, monomorphized per format version so the per-record
/// multi-node branch vanishes entirely.
template <bool MultiNode>
inline void decode_payload_impl(const std::uint8_t* p, std::size_t len,
                                std::uint32_t count,
                                std::vector<trace::Record>& out) {
  constexpr std::size_t fields = MultiNode ? 5 : 4;
  constexpr std::size_t per_record_max = kMaxVarintBytes * fields;
  out.clear();
  // Every varint takes a byte at least: a count the payload cannot hold
  // underruns, and must not size the reservation first.
  if (std::uint64_t{count} * fields > len) throw_underrun();
  out.reserve(count);
  trace::Record prev;
  std::size_t pos = 0;
  std::uint32_t i = 0;
  // Fast path: while a worst-case record fits in the remaining span, every
  // varint decodes without per-byte bounds checks.
  while (i < count && len - pos >= per_record_max) {
    const std::uint8_t* q = p + pos;
    std::int64_t dts = 0, dsec = 0, dsize = 0, dnode = 0;
    std::uint64_t flags = 0;
    if ((q = get_svarint_fast(q, dts)) == nullptr ||
        (q = get_svarint_fast(q, dsec)) == nullptr ||
        (q = get_svarint_fast(q, dsize)) == nullptr ||
        (q = get_uvarint_fast(q, flags)) == nullptr) {
      throw_underrun();
    }
    if constexpr (MultiNode) {
      if ((q = get_svarint_fast(q, dnode)) == nullptr) throw_underrun();
    }
    pos = static_cast<std::size_t>(q - p);
    prev = apply_deltas(prev, dts, dsec, dsize, flags, dnode);
    out.push_back(prev);
    ++i;
  }
  // Checked tail: the last few records, where a worst-case encoding could
  // run past the span.
  for (; i < count; ++i) {
    std::int64_t dts = 0, dsec = 0, dsize = 0, dnode = 0;
    std::uint64_t flags = 0;
    if (!get_svarint(p, len, pos, dts) || !get_svarint(p, len, pos, dsec) ||
        !get_svarint(p, len, pos, dsize) ||
        !get_uvarint(p, len, pos, flags) ||
        (MultiNode && !get_svarint(p, len, pos, dnode))) {
      throw_underrun();
    }
    prev = apply_deltas(prev, dts, dsec, dsize, flags, dnode);
    out.push_back(prev);
  }
  if (pos != len) {
    throw std::runtime_error("esst: chunk payload has trailing bytes");
  }
}

}  // namespace detail

/// Decode a whole chunk payload into `out` (cleared first, capacity
/// reused). Throws std::runtime_error when the payload underruns the
/// record count or carries trailing bytes.
inline void decode_payload_into(const std::uint8_t* p, std::size_t len,
                                std::uint32_t count, bool multi_node,
                                std::vector<trace::Record>& out) {
  if (multi_node) {
    detail::decode_payload_impl<true>(p, len, count, out);
  } else {
    detail::decode_payload_impl<false>(p, len, count, out);
  }
}

// ---- framing check ---------------------------------------------------------

namespace detail {

/// Bit k set when byte k of the 8 at `p` is a varint continuation byte
/// (high bit set). The multiply gathers the eight high bits into the top
/// byte: every partial product lands on its own bit, so nothing carries.
inline std::uint64_t continuation_bits8(const std::uint8_t* p) {
  return ((get_u64(p) & 0x8080808080808080u) * 0x0002040810204081u) >> 56;
}

/// Continuation bits of 64 bytes, byte k at bit k.
inline std::uint64_t continuation_bits64(const std::uint8_t* p) {
  std::uint64_t m = 0;
  for (int i = 0; i < 8; ++i) m |= continuation_bits8(p + 8 * i) << (8 * i);
  return m;
}

/// std::popcount without a library call: baseline x86-64 has no POPCNT.
inline int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<int>((x * 0x0101010101010101u) >> 56);
}

}  // namespace detail

/// Whether decode_payload_into would accept the payload, without decoding
/// it. The decoder reads `count` records of 4 varints (5 multi-node) and
/// succeeds exactly when those varints cover the payload — every one
/// present (no underrun), none longer than kMaxVarintBytes (no overlong
/// encoding), no byte left after the last (no trailing bytes). Varints end
/// at terminator bytes (high bit clear), so that is: count × fields
/// terminators, a terminator as the last byte, and no run of
/// kMaxVarintBytes continuation bytes. The walk takes 64 bytes per step
/// as one bit mask (SWAR over 64-bit words) and carries the run of
/// continuation bytes that ends each step into the next.
inline bool payload_frames(const std::uint8_t* p, std::size_t len,
                           std::uint32_t count, bool multi_node) {
  const std::uint64_t varints =
      std::uint64_t{count} * (multi_node ? 5u : 4u);
  if (len == 0) return varints == 0;
  if ((p[len - 1] & 0x80) != 0) return false;
  std::uint64_t continuations = 0;
  int run = 0;  // continuation bytes ending the previous step
  const auto step = [&](std::uint64_t m) {
    continuations += static_cast<std::uint64_t>(detail::popcount64(m));
    // Bit i of r8 & (r2 >> 8): bytes i .. i+9 all continue.
    const std::uint64_t r2 = m & (m >> 1);
    const std::uint64_t r4 = r2 & (r2 >> 2);
    const std::uint64_t r8 = r4 & (r4 >> 4);
    const bool ok = run + std::countr_one(m) <
                        static_cast<int>(kMaxVarintBytes) &&
                    (r8 & (r2 >> 8)) == 0;
    run = std::countl_one(m);
    return ok;
  };
  std::size_t pos = 0;
  for (; len - pos >= 64; pos += 64) {
    if (!step(detail::continuation_bits64(p + pos))) return false;
  }
  if (pos < len) {
    // The last partial step, zero-padded: a zero byte is a terminator
    // that no run crosses, and the padding adds no continuation count.
    std::uint8_t tail[64] = {};
    std::memcpy(tail, p + pos, len - pos);
    if (!step(detail::continuation_bits64(tail))) return false;
  }
  return len - continuations == varints;
}

// ---- header / index / trailer ---------------------------------------------

/// Parse and validate the 128-byte fixed header (magic, version, CRC).
/// Throws std::runtime_error when the header is unusable.
inline EsstMeta parse_header(const std::uint8_t* h) {
  if (std::memcmp(h, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("esst: bad magic");
  }
  const std::uint16_t version = get_u16(h + 8);
  if (version != kVersion && version != kVersionMulti) {
    throw std::runtime_error("esst: unsupported version");
  }
  if (crc32(h, kHeaderBytes - 4) != get_u32(h + kHeaderBytes - 4)) {
    throw std::runtime_error("esst: header CRC mismatch");
  }
  EsstMeta meta;
  meta.multi_node = version == kVersionMulti;
  meta.node_id = static_cast<std::int32_t>(get_u32(h + 12));
  meta.total_sectors = get_u64(h + 16);
  meta.sector_bytes = get_u32(h + 24);
  meta.records_per_chunk = get_u32(h + 28);
  meta.seed = get_u64(h + 32);
  meta.ram_bytes = get_u64(h + 40);
  const std::uint32_t name_len =
      std::min<std::uint32_t>(get_u32(h + 48), kNameBytes);
  meta.experiment.assign(reinterpret_cast<const char*>(h + 52), name_len);
  return meta;
}

struct TrailerInfo {
  std::uint32_t chunk_count = 0;
  std::uint32_t index_crc = 0;
  std::uint64_t duration = 0;
  std::uint64_t total_records = 0;
  std::uint64_t index_offset = 0;
  std::uint64_t capture_dropped = 0;  // 0 for legacy "ESSTIDX1" trailers
};

/// Look for a trailer at the end of `tail` (the file's last `tail_len`
/// bytes). Tries the 48-byte "ESSTIDX2" layout first, then the legacy
/// 40-byte "ESSTIDX1". Returns the trailer's byte size, or 0 when neither
/// magic matches (the caller falls back to a salvage scan).
inline std::size_t parse_trailer(const std::uint8_t* tail,
                                 std::size_t tail_len, TrailerInfo& out) {
  const std::uint8_t* t = nullptr;
  std::size_t trailer_bytes = 0;
  if (tail_len >= kTrailer2Bytes &&
      std::memcmp(tail + tail_len - kTrailer2Bytes + 40, kIndexMagic2,
                  sizeof kIndexMagic2) == 0) {
    t = tail + tail_len - kTrailer2Bytes;
    trailer_bytes = kTrailer2Bytes;
    out.capture_dropped = get_u64(t + 32);
  } else if (tail_len >= kTrailer1Bytes &&
             std::memcmp(tail + tail_len - kTrailer1Bytes + 32, kIndexMagic1,
                         sizeof kIndexMagic1) == 0) {
    t = tail + tail_len - kTrailer1Bytes;
    trailer_bytes = kTrailer1Bytes;
    out.capture_dropped = 0;
  } else {
    return 0;
  }
  out.chunk_count = get_u32(t);
  out.index_crc = get_u32(t + 4);
  out.duration = get_u64(t + 8);
  out.total_records = get_u64(t + 16);
  out.index_offset = get_u64(t + 24);
  return trailer_bytes;
}

/// Decode `chunk_count` fixed-size index entries into ChunkInfo rows.
/// The caller has already CRC-checked the entry bytes.
inline void parse_index_entries(const std::uint8_t* entries,
                                std::uint32_t chunk_count,
                                std::vector<ChunkInfo>& out) {
  out.clear();
  out.reserve(chunk_count);
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    const std::uint8_t* e = entries + i * kIndexEntryBytes;
    ChunkInfo c;
    c.offset = get_u64(e);
    c.records = get_u32(e + 8);
    c.ts_first = get_u64(e + 12);
    c.ts_last = get_u64(e + 20);
    c.sector_min = get_u32(e + 28);
    c.sector_max = get_u32(e + 32);
    out.push_back(c);
  }
}

/// Parse a chunk's 28-byte footer into `info` (offset left untouched) and
/// return the footer's stored CRC.
inline std::uint32_t parse_chunk_footer(const std::uint8_t* ftr,
                                        ChunkInfo& info) {
  info.records = get_u32(ftr);
  info.ts_first = get_u64(ftr + 4);
  info.ts_last = get_u64(ftr + 12);
  info.sector_min = get_u32(ftr + 20);
  info.sector_max = get_u32(ftr + 24);
  return get_u32(ftr + kChunkFooterBytes - 4);
}

/// The chunk CRC rule: payload first, then the footer summary chained on.
inline std::uint32_t chunk_crc(const std::uint8_t* payload,
                               std::size_t payload_len,
                               const std::uint8_t* ftr) {
  return crc32(ftr, kChunkFooterBytes - 4, crc32(payload, payload_len));
}

}  // namespace ess::telemetry::codec
