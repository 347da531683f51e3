// Little-endian binary encoding helpers for the on-disk formats (graphs,
// label indexes, external-sort runs). All hopdb disk formats are explicitly
// little-endian so files are portable across machines; their integers are
// fixed-width, except HLI1's label counts and entries, which are LEB128
// varints.

#ifndef HOPDB_UTIL_SERDE_H_
#define HOPDB_UTIL_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace hopdb {

// ---------------------------------------------------------------------------
// Raw little-endian primitives. x86-64 and aarch64 are little-endian; the
// memcpy form is endian-correct everywhere and optimizes to a single load.
// ---------------------------------------------------------------------------

inline void EncodeU32(uint32_t v, uint8_t* out) { std::memcpy(out, &v, 4); }
inline void EncodeU64(uint64_t v, uint8_t* out) { std::memcpy(out, &v, 8); }

inline uint32_t DecodeU32(const uint8_t* in) {
  uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}

inline uint64_t DecodeU64(const uint8_t* in) {
  uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

/// Bytes a LEB128 u32 takes at most.
inline constexpr size_t kMaxVarint32Bytes = 5;

/// Writes v as unsigned LEB128 — 7 bits a byte, low bits first, the high
/// bit set on every byte but the last — and returns the bytes written
/// (1..5). This is the shortest encoding of v, the only one
/// DecodeVarint32 accepts.
inline size_t EncodeVarint32(uint32_t v, uint8_t* out) {
  size_t n = 0;
  for (; v >= 0x80; v >>= 7) out[n++] = static_cast<uint8_t>(v | 0x80);
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Reads one LEB128 u32 from [*in, end) and moves *in past it. Only the
/// shortest encoding of a value is accepted, so every value has one
/// encoding: false (and *in unmoved) when the bytes end before the value
/// does, when a last byte after the first is zero (an overlong
/// encoding), or when the value needs more than 32 bits.
inline bool DecodeVarint32(const uint8_t** in, const uint8_t* end,
                           uint32_t* v) {
  const uint8_t* p = *in;
  if (p != end && *p < 0x80) {  // one byte, the common case
    *v = *p;
    *in = p + 1;
    return true;
  }
  uint32_t value = 0;
  for (int shift = 0; shift < 35 && p != end; shift += 7) {
    const uint8_t byte = *p++;
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      if ((byte == 0 && shift > 0) || (shift == 28 && byte > 0x0f)) {
        return false;
      }
      *in = p;
      *v = value;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Append-style encoders used when building headers.
// ---------------------------------------------------------------------------

inline void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutU64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash; the integrity checksum of hopdb disk formats.
/// Chainable: hashing a buffer in pieces, each call seeded with the
/// previous call's result, gives the hash of the whole buffer.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = kFnv1a64Basis) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Whole-file helpers.
// ---------------------------------------------------------------------------

/// Reads an entire regular file into `out`. Anything else (a directory,
/// a pipe, a device) fails with IOError before any allocation.
Status ReadFileToString(const std::string& path, std::string* out);

/// Writes `data` to `path` in place: fopen ("wb", truncating any existing
/// file), fwrite, fclose. There is no fsync and no rename, so a crash or
/// a failed write can leave a torn or empty file behind. The index
/// writers (HLI1's TwoHopIndex::Save, HLI2's MappedIndex::Write) replace
/// their files atomically instead (io/replacing_writer.h); the HDI1 and
/// HGR1 writers still end here.
Status WriteStringToFile(const std::string& path, const std::string& data);

/// Removes a file if it exists; missing files are not an error.
Status RemoveFileIfExists(const std::string& path);

/// Returns the size of a file in bytes.
Result<uint64_t> FileSizeBytes(const std::string& path);

}  // namespace hopdb

#endif  // HOPDB_UTIL_SERDE_H_
