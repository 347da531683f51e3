#include "util/serde.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "io/temp_dir.h"

namespace hopdb {
namespace {

TEST(SerdeTest, RoundTripPrimitives) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 13u);
  const auto* bytes = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(DecodeU32(bytes + 1), 0xDEADBEEFu);
  EXPECT_EQ(DecodeU64(bytes + 5), 0x0123456789ABCDEFull);
}

TEST(SerdeTest, LittleEndianLayout) {
  std::string buf;
  PutU32(&buf, 0x01020304);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x01);
}

TEST(SerdeTest, EncodeDecodeInPlace) {
  uint8_t buf[8];
  EncodeU32(77, buf);
  EXPECT_EQ(DecodeU32(buf), 77u);
  EncodeU64(1ull << 40, buf);
  EXPECT_EQ(DecodeU64(buf), 1ull << 40);
}

// LEB128: 7 bits a byte, low first; every value has one encoding, its
// shortest, and the decoder takes no other.
TEST(SerdeTest, VarintsRoundTripInTheirShortestForm) {
  const struct {
    uint32_t value;
    std::vector<uint8_t> bytes;
  } cases[] = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},
      {128, {0x80, 0x01}},
      {300, {0xac, 0x02}},
      {16383, {0xff, 0x7f}},
      {16384, {0x80, 0x80, 0x01}},
      {0xfffffffeu, {0xfe, 0xff, 0xff, 0xff, 0x0f}},
      {0xffffffffu, {0xff, 0xff, 0xff, 0xff, 0x0f}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.value);
    uint8_t buf[kMaxVarint32Bytes];
    const size_t n = EncodeVarint32(c.value, buf);
    EXPECT_EQ(std::vector<uint8_t>(buf, buf + n), c.bytes);
    const uint8_t* p = c.bytes.data();
    uint32_t v = 0;
    ASSERT_TRUE(DecodeVarint32(&p, c.bytes.data() + c.bytes.size(), &v));
    EXPECT_EQ(v, c.value);
    EXPECT_EQ(p, c.bytes.data() + c.bytes.size());
    // One byte short: the value runs past the end, and nothing moves.
    p = c.bytes.data();
    EXPECT_FALSE(DecodeVarint32(&p, c.bytes.data() + c.bytes.size() - 1, &v));
    EXPECT_EQ(p, c.bytes.data());
  }
}

TEST(SerdeTest, VarintDecoderRefusesOtherForms) {
  const std::vector<std::vector<uint8_t>> refused = {
      {0x80, 0x00},                          // 0, overlong
      {0x81, 0x80, 0x00},                    // 1, overlong
      {0xff, 0xff, 0xff, 0xff, 0x10},        // 2^32: over 32 bits
      {0xff, 0xff, 0xff, 0xff, 0x7f},        // over 32 bits
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x00},  // six bytes
  };
  for (const std::vector<uint8_t>& bytes : refused) {
    const uint8_t* p = bytes.data();
    uint32_t v = 0;
    EXPECT_FALSE(DecodeVarint32(&p, bytes.data() + bytes.size(), &v));
    EXPECT_EQ(p, bytes.data());
  }
}

TEST(SerdeFileTest, FileRoundTrip) {
  auto dir = TempDir::Create("serde_test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("data.bin");
  std::string payload(100000, 'x');
  payload[5] = '\0';  // binary-safe
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
}

TEST(SerdeFileTest, MissingFileErrors) {
  std::string back;
  EXPECT_EQ(ReadFileToString("/nonexistent/nowhere.bin", &back).code(),
            StatusCode::kIOError);
  EXPECT_FALSE(FileSizeBytes("/nonexistent/nowhere.bin").ok());
}

// A directory opens for reading, but has no size to read: refused with
// IOError before anything is allocated, not by throwing bad_alloc.
TEST(SerdeFileTest, DirectoryIsNotAFile) {
  auto dir = TempDir::Create("serde_test");
  ASSERT_TRUE(dir.ok());
  std::string back = "untouched";
  Status status;
  EXPECT_NO_THROW(status = ReadFileToString(dir->path(), &back));
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
  EXPECT_EQ(back, "untouched");
}

TEST(SerdeFileTest, RemoveIfExists) {
  auto dir = TempDir::Create("serde_test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("x");
  ASSERT_TRUE(WriteStringToFile(path, "1").ok());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());  // second time: no error
}

TEST(Fnv1aTest, KnownVectorsAndSensitivity) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abc", 2));
}

TEST(Fnv1aTest, ChainedPiecesHashLikeOneCall) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 37));
  const uint64_t whole = Fnv1a64(data.data(), data.size());
  for (const size_t piece : {1, 7, 64, 999, 1000}) {
    uint64_t h = kFnv1a64Basis;
    for (size_t at = 0; at < data.size(); at += piece) {
      h = Fnv1a64(data.data() + at, std::min(piece, data.size() - at), h);
    }
    EXPECT_EQ(h, whole) << "pieces of " << piece;
  }
}

}  // namespace
}  // namespace hopdb
