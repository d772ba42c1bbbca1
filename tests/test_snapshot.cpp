// The snapshot file layer's contract (src/snapshot/snapshot.hpp): a
// round-tripped payload comes back byte-identical, and EVERY possible
// single-byte corruption or truncation of the file — exhaustively, not a
// sample — is rejected with the typed `snapshot-invalid` error. The writer
// side is crash-consistent: atomic_write_file either replaces the target
// with the complete new content or leaves it untouched, and maps write
// failures to the typed I/O error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/sim/error.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/snapshot/serial.hpp"
#include "src/snapshot/snapshot.hpp"

namespace st2::snapshot {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st2_snapshot_test_" +
            std::to_string(static_cast<unsigned>(::getpid())));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST(SnapshotSerial, WriterReaderRoundTripAllTypes) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.str("carry-lookahead");
  w.str("");
  const std::string bytes = w.data();

  Reader r(bytes, "round-trip");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.str(), "carry-lookahead");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotSerial, EncodingIsLittleEndianAndPaddingFree) {
  Writer w;
  w.u32(0x04030201u);
  EXPECT_EQ(w.data(), std::string("\x01\x02\x03\x04", 4));
  w.u16(0x0605);
  EXPECT_EQ(w.data().size(), 6u);  // no alignment padding between fields
}

TEST(SnapshotSerial, ReaderRejectsOverruns) {
  Writer w;
  w.u32(7);
  const std::string bytes = w.data();
  Reader r(bytes, "overrun");
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), sim::SimError);
  try {
    Reader r2(bytes, "overrun");
    (void)r2.u64();  // 8 bytes from a 4-byte buffer
    FAIL();
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimErrorKind::kSnapshotInvalid);
  }
}

TEST(SnapshotSerial, ReaderRejectsLyingStringLength) {
  Writer w;
  w.u32(1000);  // claims a 1000-byte string, provides none
  try {
    Reader r(w.data(), "liar");
    (void)r.str();
    FAIL();
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimErrorKind::kSnapshotInvalid);
  }
}

TEST(SnapshotCrc, MatchesKnownVectorAndSeesEveryBit) {
  // The standard CRC-32 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  const std::string base(64, '\x5a');
  const std::uint32_t good = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = base;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_NE(crc32(bad), good) << "byte " << i << " bit " << bit;
    }
  }
}

TEST_F(SnapshotFileTest, WriteReadRoundTrip) {
  std::string payload = "engine state bytes ";
  for (const int b : {0x00, 0x01, 0x7f, 0xff}) {
    payload.push_back(static_cast<char>(b));
  }
  const std::string p = path("round.st2");
  write_snapshot(p, /*config_hash=*/0x1122334455667788ull, payload);
  EXPECT_EQ(read_snapshot(p, 0x1122334455667788ull), payload);
  EXPECT_EQ(fs::file_size(p), kHeaderBytes + payload.size());
  EXPECT_FALSE(fs::exists(p + ".tmp"));  // tmp renamed away
}

TEST_F(SnapshotFileTest, EveryByteFlipAndTruncationIsRejected) {
  std::string payload;
  for (int i = 0; i < 200; ++i) payload.push_back(static_cast<char>(i));
  const std::string p = path("victim.st2");
  const std::string bad = path("bad.st2");
  write_snapshot(p, 0xfeedu, payload);
  const std::string good = read_file(p);
  ASSERT_EQ(good.size(), kHeaderBytes + payload.size());

  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    std::ofstream(bad, std::ios::binary | std::ios::trunc) << bytes;
    try {
      (void)read_snapshot(bad, 0xfeedu);
      FAIL() << what << " was accepted";
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.kind(), sim::SimErrorKind::kSnapshotInvalid) << what;
    }
  };

  // Exhaustive: flip every bit of every byte — magic, version, config
  // hash, sizes, both CRCs, payload. Exactly one validation layer must
  // catch each one.
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string t = good;
      t[i] = static_cast<char>(t[i] ^ (1 << bit));
      expect_rejected(t, "bit " + std::to_string(bit) + " of byte " +
                             std::to_string(i));
    }
  }
  // Exhaustive: every truncation length, including an empty file and a
  // file cut mid-header.
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_rejected(good.substr(0, len),
                    "truncation to " + std::to_string(len) + " bytes");
  }
  // Trailing garbage is a size mismatch, not silently ignored bytes.
  expect_rejected(good + "x", "trailing garbage");
}

TEST_F(SnapshotFileTest, PreviousFormatVersionIsRejectedByTheVersionCheck) {
  // Synthesize snapshots whose headers declare each PREVIOUS format version
  // but are otherwise pristine — header CRC recomputed over the patched
  // bytes — so the rejection can only come from the version check itself,
  // not from corruption detection. Guards the v3 -> v4 layout change
  // (predictor state without a pending-write queue or row-read counter): a
  // v3 payload misread under the v4 layout would be garbage, so stale
  // files must die here, up front.
  static_assert(kFormatVersion == 4,
                "update this test's synthesized versions alongside the bump");
  for (const std::uint32_t stale : {1u, 2u, 3u}) {
    const std::string p = path("stale.st2");
    write_snapshot(p, /*config_hash=*/0xfeedu, "old-era payload bytes");
    std::string file = read_file(p);
    ASSERT_GE(file.size(), kHeaderBytes);
    // Patch the version field (offset 8, little-endian u32), then restore
    // header validity by recomputing the header CRC (last 4 header bytes,
    // covering the 32 bytes before them).
    file[8] = static_cast<char>(stale);
    file[9] = file[10] = file[11] = 0;
    const std::uint32_t hcrc =
        crc32(std::string_view(file).substr(0, kHeaderBytes - 4));
    for (int i = 0; i < 4; ++i) {
      file[kHeaderBytes - 4 + static_cast<std::size_t>(i)] =
          static_cast<char>((hcrc >> (8 * i)) & 0xff);
    }
    std::ofstream(p, std::ios::binary | std::ios::trunc) << file;
    try {
      (void)read_snapshot(p, 0xfeedu);
      FAIL() << "a version-" << stale << " snapshot was accepted";
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.kind(), sim::SimErrorKind::kSnapshotInvalid);
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(stale)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("expected 4"), std::string::npos) << what;
    }
  }
}

TEST_F(SnapshotFileTest, ConfigMismatchAndMissingFileAreRejected) {
  const std::string p = path("cfg.st2");
  write_snapshot(p, 0xaaaau, "payload");
  try {
    (void)read_snapshot(p, 0xbbbbu);
    FAIL();
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimErrorKind::kSnapshotInvalid);
    EXPECT_NE(std::string(e.what()).find("config mismatch"),
              std::string::npos);
  }
  EXPECT_THROW((void)read_snapshot(path("nope.st2"), 0), sim::SimError);
}

TEST_F(SnapshotFileTest, AtomicWriteReplacesOrLeavesUntouched) {
  const std::string p = path("report.json");
  atomic_write_file(p, "v1");
  EXPECT_EQ(read_file(p), "v1");
  atomic_write_file(p, "v2 longer content");
  EXPECT_EQ(read_file(p), "v2 longer content");
  EXPECT_FALSE(fs::exists(p + ".tmp"));

  // A destination whose parent directory does not exist must throw the
  // typed I/O error and leave nothing behind.
  const std::string orphan = (dir_ / "no_such_dir" / "x.json").string();
  try {
    atomic_write_file(orphan, "doomed");
    FAIL();
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimErrorKind::kIo);
  }
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(fs::exists(orphan + ".tmp"));
}

TEST_F(SnapshotFileTest, Fnv1aIsStableAcrossRuns) {
  // The config hash must be a pure function of the string: pin the
  // constants so an accidental change breaks loudly (old snapshots would
  // otherwise be rejected as config mismatches after an innocent rebuild).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("kernel=a"), fnv1a64("kernel=b"));
}

}  // namespace
}  // namespace st2::snapshot
