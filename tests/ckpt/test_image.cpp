// Checkpoint image codec and atomic store: CRC vectors, binio round-trips,
// snapshot encode/decode, torn-image detection, and the .prev fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "util/binio.hpp"
#include "util/crc32.hpp"
#include "util/fatal.hpp"

namespace {

namespace fs = std::filesystem;
using opalsim::ckpt::decode;
using opalsim::ckpt::encode;
using opalsim::ckpt::MailboxItemSnap;
using opalsim::ckpt::RunSnapshot;
using opalsim::ckpt::ServerSnap;
using opalsim::util::BinReader;
using opalsim::util::BinWriter;
using opalsim::util::crc32;
using opalsim::util::DecodeError;
using opalsim::util::FatalError;

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (poly 0xEDB88320, reflected, pre/post-xor) check
  // value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(Crc32, SeedChainsAndSeparates) {
  const std::uint8_t a[] = {1, 2, 3, 4};
  EXPECT_NE(crc32(a, 4), crc32(a, 4, 0x9e3779b9u));
  EXPECT_NE(crc32(a, 4), crc32(a, 3));
}

TEST(BinIo, RoundTripsEveryType) {
  BinWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_f64(-1.5e-300);
  w.put_bool(true);
  w.put_string("opal");
  w.put_f64_vec({1.0, -2.0, 3.5});
  const std::vector<std::uint8_t> b = w.take();

  BinReader r({b.data(), b.size()});
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_f64(), -1.5e-300);
  EXPECT_TRUE(r.get_bool());
  std::string str(r.get_count(1), '\0');
  for (char& c : str) c = static_cast<char>(r.get_u8());
  EXPECT_EQ(str, "opal");
  std::vector<double> xs(r.get_count(8));
  for (double& x : xs) x = r.get_f64();
  EXPECT_EQ(xs, (std::vector<double>{1.0, -2.0, 3.5}));
  EXPECT_TRUE(r.done());
}

TEST(BinIo, ReadPastEndThrows) {
  BinWriter w;
  w.put_u32(1);
  const std::vector<std::uint8_t> b = w.take();
  BinReader r({b.data(), b.size()});
  (void)r.get_u32();
  EXPECT_THROW((void)r.get_u8(), DecodeError);
}

TEST(BinIo, OversizedLengthPrefixThrows) {
  // A corrupted length prefix must be refused before anything allocates.
  BinWriter w;
  w.put_u64(1ull << 60);
  const std::vector<std::uint8_t> b = w.take();
  BinReader r({b.data(), b.size()});
  EXPECT_THROW((void)r.get_count(8), DecodeError);
}

TEST(BinIo, CountIsBoundedByBytesLeftOverElementSize) {
  // Three elements of 4 bytes fit in the 12 bytes after the prefix; a
  // fourth, or three of 5 bytes, do not.
  for (const std::uint64_t n : {3ull, 4ull}) {
    for (const std::size_t elem : {std::size_t{4}, std::size_t{5}}) {
      BinWriter w;
      w.put_u64(n);
      for (int k = 0; k < 12; ++k) w.put_u8(0);
      const std::vector<std::uint8_t> b = w.take();
      BinReader r({b.data(), b.size()});
      if (n * elem <= 12) {
        EXPECT_EQ(r.get_count(elem), n);
      } else {
        EXPECT_THROW((void)r.get_count(elem), DecodeError)
            << n << " x " << elem;
      }
    }
  }
}

/// A snapshot exercising every field class: non-empty vectors, nested
/// containers, negative and denormal-ish doubles.
RunSnapshot sample_snapshot() {
  RunSnapshot s;
  s.config_fingerprint = 0x1122334455667788ull;
  s.now = 12.25;
  s.next_event_seq = 900;
  s.events_processed = 850;
  s.q_pushes = 1000;
  s.q_pops = 990;
  s.q_cancels = 10;
  s.q_peak = 17;
  s.step = 5;
  s.t_start = 0.5;
  s.force_update = true;
  s.positions = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  s.velocities = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  s.update_coords = {9.0, 8.0, 7.0, 6.0, 5.0, 4.0};
  s.min_step_size = 1e-5;
  s.min_has_prev = true;
  s.min_prev_energy = -3.25;
  s.min_prev_pos = {1.0, 1.0, 1.0};
  s.min_prev_grad = {0.5, 0.5, 0.5};
  s.min_accepted = 3;
  s.min_rejected = 1;
  s.physics.evdw = -10.5;
  s.physics.ecoul = 2.25;
  s.physics.bonded.bond = 0.125;
  s.metrics.wall = 99.5;
  s.metrics.retries = 4;
  s.failover_epoch = 2;
  s.assignment = {{0, 1, 2, 3}, {4, 5}};
  ServerSnap sv;
  sv.domain = {0, 1, 2, 3};
  sv.active = {0, 1};
  sv.materialized = true;
  sv.pairs_checked = 40;
  sv.pairs_evaluated = 20;
  sv.adopt_epoch = 2;
  s.servers = {sv};
  s.next_send_seq = 123;
  MailboxItemSnap mi;
  mi.src = 3;
  mi.tag = 1002;
  mi.seq = 88;
  mi.checksum = 0xFEED;
  mi.corrupted = true;
  mi.raw = {9, 9, 9};
  mi.payload_bytes = 3;
  s.mailboxes = {{}, {mi}};
  s.alive = {true, false, true};
  s.jitter_rng = {1, 2, 3, 4};
  s.rpc_retries = 5;
  s.rpc_recovery_time_s = 0.75;
  s.next_call_id = 44;
  s.next_probe_id = 7;
  s.node_faults = {{2, 3.5}};
  s.fault_enabled = true;
  s.f_seen = 100;
  s.f_dropped = 2;
  s.message_rng = {5, 6, 7, 8};
  s.corrupt_rng = {9, 10, 11, 12};
  s.stall_rng = {13, 14, 15, 16};
  s.cpus = {{1, 2, 3, 4, 5, 6, 7.5, 8.5}, {9, 10, 11, 12, 13, 14, 15.5, 16.5}};
  s.net_messages = 400;
  s.net_bytes = 123456;
  s.sink_next_seq = 777;
  s.images_written = 3;
  s.bytes_written = 30000;
  s.deferred = 1;
  return s;
}

TEST(SnapshotCodec, RoundTripsEveryField) {
  const RunSnapshot s = sample_snapshot();
  const RunSnapshot d = decode(encode(s));
  EXPECT_EQ(d.config_fingerprint, s.config_fingerprint);
  EXPECT_EQ(d.now, s.now);
  EXPECT_EQ(d.next_event_seq, s.next_event_seq);
  EXPECT_EQ(d.events_processed, s.events_processed);
  EXPECT_EQ(d.q_pushes, s.q_pushes);
  EXPECT_EQ(d.q_peak, s.q_peak);
  EXPECT_EQ(d.step, s.step);
  EXPECT_EQ(d.t_start, s.t_start);
  EXPECT_EQ(d.force_update, s.force_update);
  EXPECT_EQ(d.positions, s.positions);
  EXPECT_EQ(d.velocities, s.velocities);
  EXPECT_EQ(d.update_coords, s.update_coords);
  EXPECT_EQ(d.min_step_size, s.min_step_size);
  EXPECT_EQ(d.min_has_prev, s.min_has_prev);
  EXPECT_EQ(d.min_prev_pos, s.min_prev_pos);
  EXPECT_EQ(d.min_accepted, s.min_accepted);
  EXPECT_EQ(d.physics.evdw, s.physics.evdw);
  EXPECT_EQ(d.physics.bonded.bond, s.physics.bonded.bond);
  EXPECT_EQ(d.metrics.wall, s.metrics.wall);
  EXPECT_EQ(d.metrics.retries, s.metrics.retries);
  EXPECT_EQ(d.failover_epoch, s.failover_epoch);
  EXPECT_EQ(d.assignment, s.assignment);
  ASSERT_EQ(d.servers.size(), 1u);
  EXPECT_EQ(d.servers[0].domain, s.servers[0].domain);
  EXPECT_EQ(d.servers[0].active, s.servers[0].active);
  EXPECT_EQ(d.servers[0].materialized, s.servers[0].materialized);
  EXPECT_EQ(d.servers[0].adopt_epoch, s.servers[0].adopt_epoch);
  EXPECT_EQ(d.next_send_seq, s.next_send_seq);
  ASSERT_EQ(d.mailboxes.size(), 2u);
  EXPECT_TRUE(d.mailboxes[0].empty());
  ASSERT_EQ(d.mailboxes[1].size(), 1u);
  EXPECT_EQ(d.mailboxes[1][0].src, 3);
  EXPECT_EQ(d.mailboxes[1][0].seq, 88u);
  EXPECT_EQ(d.mailboxes[1][0].corrupted, true);
  EXPECT_EQ(d.mailboxes[1][0].raw, (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(d.alive, s.alive);
  EXPECT_EQ(d.jitter_rng, s.jitter_rng);
  EXPECT_EQ(d.rpc_retries, s.rpc_retries);
  EXPECT_EQ(d.rpc_recovery_time_s, s.rpc_recovery_time_s);
  EXPECT_EQ(d.next_call_id, s.next_call_id);
  ASSERT_EQ(d.node_faults.size(), 1u);
  EXPECT_EQ(d.node_faults[0].node, 2);
  EXPECT_EQ(d.node_faults[0].t_fail, 3.5);
  EXPECT_EQ(d.fault_enabled, s.fault_enabled);
  EXPECT_EQ(d.f_seen, s.f_seen);
  EXPECT_EQ(d.message_rng, s.message_rng);
  EXPECT_EQ(d.stall_rng, s.stall_rng);
  ASSERT_EQ(d.cpus.size(), 2u);
  EXPECT_EQ(d.cpus[1].cmp, 14u);
  EXPECT_EQ(d.cpus[1].cycles, 16.5);
  EXPECT_EQ(d.net_bytes, s.net_bytes);
  EXPECT_EQ(d.sink_next_seq, s.sink_next_seq);
  EXPECT_EQ(d.images_written, s.images_written);
  EXPECT_EQ(d.bytes_written, s.bytes_written);
  EXPECT_EQ(d.deferred, s.deferred);
}

TEST(SnapshotCodec, SizeInvariantToCounterValues) {
  // The two-pass self-inclusive bytes_written accounting relies on this.
  RunSnapshot s = sample_snapshot();
  const std::size_t base = encode(s).size();
  s.bytes_written = 0xFFFFFFFFFFFFull;
  s.images_written = 9999;
  EXPECT_EQ(encode(s).size(), base);
}

void expect_bad_image(const std::vector<std::uint8_t>& img,
                      const std::string& want) {
  try {
    (void)decode(img);
    FAIL() << "decode accepted a bad image (wanted: " << want << ")";
  } catch (const FatalError& e) {
    EXPECT_EQ(e.subsystem(), "ckpt");
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

/// Recomputes the CRC trailer after a deliberate payload edit, so decode
/// gets past the CRC check and reaches the field under test.
void reseal(std::vector<std::uint8_t>& img) {
  const std::size_t body = img.size() - 4;
  const std::uint32_t crc = crc32(img.data(), body);
  for (int i = 0; i < 4; ++i) {
    img[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(SnapshotCodec, DetectsTruncation) {
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  img.resize(img.size() / 2);
  expect_bad_image(img, "CRC mismatch");
  img.resize(4);
  expect_bad_image(img, "truncated header");
}

TEST(SnapshotCodec, DetectsBitFlip) {
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  img[img.size() / 2] ^= 0x01;
  expect_bad_image(img, "CRC mismatch");
}

TEST(SnapshotCodec, DetectsBadMagic) {
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  img[0] = 'X';
  expect_bad_image(img, "magic mismatch");
}

TEST(SnapshotCodec, DetectsVersionMismatch) {
  // Bump the version and re-seal the CRC so only the version check fires.
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  img[8] = 99;
  reseal(img);
  expect_bad_image(img, "version 99");
}

TEST(SnapshotCodec, EncodesZeroLpClockCountAndRejectsNonZero) {
  // The per-LP clock count sits after the engine block: magic (8), version
  // (4), fingerprint, now, next seq, processed and four queue counters
  // (8 each).  Images always carry 0 there; a sealed image claiming a
  // clock must be refused, not read as one.
  constexpr std::size_t kLpCountOffset = 8 + 4 + 8 * 8;
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(img[kLpCountOffset + i], 0u) << "byte " << i;
  }
  img[kLpCountOffset] = 1;
  reseal(img);
  expect_bad_image(img, "per-LP clocks");
}

TEST(SnapshotCodec, DetectsTrailingBytes) {
  RunSnapshot s = sample_snapshot();
  std::vector<std::uint8_t> img = encode(s);
  // Insert a byte before the CRC and re-seal, so the payload over-runs.
  img.insert(img.end() - 4, 0x00);
  reseal(img);
  expect_bad_image(img, "trailing bytes");
}

std::uint32_t trailer(const std::vector<std::uint8_t>& img) {
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(img[img.size() - 4 + i]) << (8 * i);
  }
  return crc;
}

TEST(SnapshotCodec, LayoutIsPinned) {
  // Size and CRC trailer of two images: moving, widening or dropping any
  // field changes them, so resumable images stay readable across changes
  // to the codec.  (The CRC over a whole image is the constant CRC-32
  // residue, so the trailer is what carries the content.)
  const std::vector<std::uint8_t> empty = encode(RunSnapshot{});
  EXPECT_EQ(empty.size(), 775u);
  EXPECT_EQ(trailer(empty), 0xcc3d8f9fu);
  const std::vector<std::uint8_t> sample = encode(sample_snapshot());
  EXPECT_EQ(sample.size(), 1275u);
  EXPECT_EQ(trailer(sample), 0x0dbf5932u);
}

/// Empty when decode accepts `img` or refuses it with FatalError("ckpt");
/// otherwise a description of what escaped.
std::string escape_from_decode(const std::vector<std::uint8_t>& img) {
  try {
    (void)decode(img);
  } catch (const FatalError& e) {
    if (e.subsystem() == "ckpt") return "";
    return std::string("FatalError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  } catch (...) {
    return "non-standard exception";
  }
  return "";
}

TEST(SnapshotCodec, ResealedMutationsFailStructurally) {
  // Resealing the CRC after each edit lets the edit reach the parser: every
  // body byte set to 0x00, 0x7F and 0xFF, and every truncation of the body.
  // Each image must decode or fail with FatalError("ckpt"); an unchecked
  // count would escape as bad_alloc/length_error (or abort under ASan).
  const std::vector<std::uint8_t> good = encode(sample_snapshot());
  const std::size_t body = good.size() - 4;
  int mutations = 0;
  for (std::size_t off = 0; off < body; ++off) {
    for (const std::uint8_t v : {0x00, 0x7F, 0xFF}) {
      std::vector<std::uint8_t> img = good;
      img[off] = v;
      reseal(img);
      ++mutations;
      const std::string escaped = escape_from_decode(img);
      EXPECT_TRUE(escaped.empty())
          << "byte " << off << " := " << static_cast<int>(v) << ": "
          << escaped;
    }
  }
  EXPECT_EQ(mutations, 3813);
  for (std::size_t len = 0; len < body; ++len) {
    std::vector<std::uint8_t> img(good.begin(),
                                  good.begin() + static_cast<long>(len));
    img.resize(len + 4);
    reseal(img);
    const std::string escaped = escape_from_decode(img);
    EXPECT_TRUE(escaped.empty()) << "body truncated to " << len << " bytes: "
                                 << escaped;
  }
}

// -- atomic store -----------------------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("opalsim_ckpt_store_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "run.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_raw(const std::string& p, const std::vector<std::uint8_t>& b) {
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(StoreTest, WriteThenLoadRoundTrips) {
  const RunSnapshot s = sample_snapshot();
  const auto img = encode(s);
  const auto res = opalsim::ckpt::write_image_atomic(path_, img);
  EXPECT_EQ(res.bytes, img.size());
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  std::uint64_t loaded = 0;
  const RunSnapshot d = opalsim::ckpt::load_snapshot(path_, &loaded);
  EXPECT_EQ(loaded, img.size());
  EXPECT_EQ(d.config_fingerprint, s.config_fingerprint);
}

TEST_F(StoreTest, SecondWriteKeepsPreviousImage) {
  RunSnapshot s = sample_snapshot();
  s.step = 3;
  opalsim::ckpt::write_image_atomic(path_, encode(s));
  s.step = 6;
  opalsim::ckpt::write_image_atomic(path_, encode(s));
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).step, 6);
  EXPECT_EQ(decode([this] {
              std::ifstream in(path_ + ".prev", std::ios::binary);
              return std::vector<std::uint8_t>(
                  (std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
            }()).step,
            3);
}

TEST_F(StoreTest, TornPrimaryFallsBackToPrev) {
  RunSnapshot s = sample_snapshot();
  s.step = 3;
  const auto good = encode(s);
  write_raw(path_ + ".prev", good);
  // Torn primary: half an image, as a mid-write crash leaves it.
  std::vector<std::uint8_t> torn(good.begin(),
                                 good.begin() + static_cast<long>(good.size() / 2));
  write_raw(path_, torn);
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).step, 3);
}

TEST_F(StoreTest, MissingPrimaryFallsBackToPrev) {
  RunSnapshot s = sample_snapshot();
  s.step = 4;
  write_raw(path_ + ".prev", encode(s));
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).step, 4);
}

TEST_F(StoreTest, NoUsableImageThrowsListingBoth) {
  write_raw(path_, {1, 2, 3});
  try {
    (void)opalsim::ckpt::load_snapshot(path_);
    FAIL() << "load_snapshot accepted garbage";
  } catch (const FatalError& e) {
    EXPECT_EQ(e.subsystem(), "ckpt");
    const std::string what = e.what();
    EXPECT_NE(what.find(path_), std::string::npos);
    EXPECT_NE(what.find(".prev"), std::string::npos);
  }
}

}  // namespace
