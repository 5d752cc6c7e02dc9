// Checkpoint image codec and atomic store: CRC vectors, binio round-trips,
// snapshot encode/decode, torn-image detection, and the .prev fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
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
using opalsim::ckpt::encoded_size;
using opalsim::ckpt::RunSnapshot;
using ClientSnapshot = opalsim::opal::ParallelOpal::ClientSnapshot;
using ServerSnapshot = opalsim::opal::ParallelOpal::ServerSnapshot;
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
  s.engine.now = 12.25;
  s.engine.next_seq = 900;
  s.engine.events_processed = 850;
  s.engine.queue = {1000, 990, 10, 17};
  ClientSnapshot& c = s.client;
  c.step = 5;
  c.t_start = 0.5;
  c.force_update = true;
  c.positions = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  c.velocities = {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
  c.update_coords = {9.0, 8.0, 7.0, 6.0, 5.0, 4.0};
  c.minimizer.step = 1e-5;
  c.minimizer.has_prev = true;
  c.minimizer.prev_energy = -3.25;
  c.minimizer.prev_pos = {{1.0, 1.0, 1.0}};
  c.minimizer.prev_grad = {{0.5, 0.5, 0.5}};
  c.minimizer.accepted = 3;
  c.minimizer.rejected = 1;
  c.physics.evdw = -10.5;
  c.physics.ecoul = 2.25;
  c.physics.bonded.bond = 0.125;
  c.metrics.wall = 99.5;
  c.metrics.retries = 4;
  c.failover_epoch = 2;
  c.assignment = {{{0, 1}, {2, 3}}, {{4, 5}}};
  ServerSnapshot sv;
  sv.lists.domain = {{0, 1}, {2, 3}};
  sv.lists.active = {{0, 1}};
  sv.lists.materialized = true;
  sv.pairs_checked = 40;
  sv.pairs_evaluated = 20;
  sv.adopt_epoch = 2;
  s.servers = {sv};
  s.pvm.next_send_seq = 123;
  opalsim::pvm::Message mi;
  mi.src = 3;
  mi.tag = 1002;
  mi.seq = 88;
  mi.checksum = 0xFEED;
  mi.corrupted = true;
  const std::vector<std::uint8_t> raw = {9, 9, 9};
  mi.body = opalsim::pvm::PackBuffer::from_raw(raw, raw.size());
  s.pvm.mailboxes = {{}, {mi}};
  s.rpc.alive = {true, false, true};
  s.rpc.jitter_rng = {1, 2, 3, 4};
  s.rpc.totals.retries = 5;
  s.rpc.totals.recovery_time_s = 0.75;
  s.rpc.next_call_id = 44;
  s.rpc.next_probe_id = 7;
  s.machine.fault.node_faults = {{2, 3.5}};
  s.machine.fault.enabled = true;
  s.machine.fault.counters.messages_seen = 100;
  s.machine.fault.counters.dropped = 2;
  s.machine.fault.message_rng = {5, 6, 7, 8};
  s.machine.fault.corrupt_rng = {9, 10, 11, 12};
  s.machine.fault.stall_rng = {13, 14, 15, 16};
  s.machine.cpus = {{{1, 2, 3, 4, 5, 6}, 7.5, 8.5},
                    {{9, 10, 11, 12, 13, 14}, 15.5, 16.5}};
  s.machine.net_messages = 400;
  s.machine.net_bytes = 123456;
  s.sink_next_seq = 777;
  s.accounting = {3, 30000, 1};
  return s;
}

TEST(SnapshotCodec, RoundTripsEveryField) {
  const RunSnapshot s = sample_snapshot();
  const RunSnapshot d = decode(encode(s));
  EXPECT_EQ(d.config_fingerprint, s.config_fingerprint);
  EXPECT_EQ(d.engine.now, s.engine.now);
  EXPECT_EQ(d.engine.next_seq, s.engine.next_seq);
  EXPECT_EQ(d.engine.events_processed, s.engine.events_processed);
  EXPECT_EQ(d.engine.queue.pushes, s.engine.queue.pushes);
  EXPECT_EQ(d.engine.queue.peak_size, s.engine.queue.peak_size);
  EXPECT_EQ(d.client.step, s.client.step);
  EXPECT_EQ(d.client.t_start, s.client.t_start);
  EXPECT_EQ(d.client.force_update, s.client.force_update);
  EXPECT_EQ(d.client.positions, s.client.positions);
  EXPECT_EQ(d.client.velocities, s.client.velocities);
  EXPECT_EQ(d.client.update_coords, s.client.update_coords);
  EXPECT_EQ(d.client.minimizer.step, s.client.minimizer.step);
  EXPECT_EQ(d.client.minimizer.has_prev, s.client.minimizer.has_prev);
  EXPECT_EQ(d.client.minimizer.prev_pos, s.client.minimizer.prev_pos);
  EXPECT_EQ(d.client.minimizer.accepted, s.client.minimizer.accepted);
  EXPECT_EQ(d.client.physics.evdw, s.client.physics.evdw);
  EXPECT_EQ(d.client.physics.bonded.bond, s.client.physics.bonded.bond);
  EXPECT_EQ(d.client.metrics.wall, s.client.metrics.wall);
  EXPECT_EQ(d.client.metrics.retries, s.client.metrics.retries);
  EXPECT_EQ(d.client.failover_epoch, s.client.failover_epoch);
  EXPECT_EQ(d.client.assignment, s.client.assignment);
  ASSERT_EQ(d.servers.size(), 1u);
  EXPECT_EQ(d.servers[0].lists.domain, s.servers[0].lists.domain);
  EXPECT_EQ(d.servers[0].lists.active, s.servers[0].lists.active);
  EXPECT_EQ(d.servers[0].lists.materialized, s.servers[0].lists.materialized);
  EXPECT_EQ(d.servers[0].adopt_epoch, s.servers[0].adopt_epoch);
  EXPECT_EQ(d.pvm.next_send_seq, s.pvm.next_send_seq);
  ASSERT_EQ(d.pvm.mailboxes.size(), 2u);
  EXPECT_TRUE(d.pvm.mailboxes[0].empty());
  ASSERT_EQ(d.pvm.mailboxes[1].size(), 1u);
  EXPECT_EQ(d.pvm.mailboxes[1][0].src, 3);
  EXPECT_EQ(d.pvm.mailboxes[1][0].seq, 88u);
  EXPECT_EQ(d.pvm.mailboxes[1][0].corrupted, true);
  const std::span<const std::uint8_t> raw =
      d.pvm.mailboxes[1][0].body.raw_bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(raw.begin(), raw.end()),
            (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(d.pvm.mailboxes[1][0].body.byte_size(), 3u);
  EXPECT_EQ(d.rpc.alive, s.rpc.alive);
  EXPECT_EQ(d.rpc.jitter_rng, s.rpc.jitter_rng);
  EXPECT_EQ(d.rpc.totals.retries, s.rpc.totals.retries);
  EXPECT_EQ(d.rpc.totals.recovery_time_s, s.rpc.totals.recovery_time_s);
  EXPECT_EQ(d.rpc.next_call_id, s.rpc.next_call_id);
  ASSERT_EQ(d.machine.fault.node_faults.size(), 1u);
  EXPECT_EQ(d.machine.fault.node_faults[0].node, 2);
  EXPECT_EQ(d.machine.fault.node_faults[0].t_fail, 3.5);
  EXPECT_EQ(d.machine.fault.enabled, s.machine.fault.enabled);
  EXPECT_EQ(d.machine.fault.counters.messages_seen,
            s.machine.fault.counters.messages_seen);
  EXPECT_EQ(d.machine.fault.message_rng, s.machine.fault.message_rng);
  EXPECT_EQ(d.machine.fault.stall_rng, s.machine.fault.stall_rng);
  ASSERT_EQ(d.machine.cpus.size(), 2u);
  EXPECT_EQ(d.machine.cpus[1].ops.cmp, 14u);
  EXPECT_EQ(d.machine.cpus[1].cycles, 16.5);
  EXPECT_EQ(d.machine.net_bytes, s.machine.net_bytes);
  EXPECT_EQ(d.sink_next_seq, s.sink_next_seq);
  EXPECT_EQ(d.accounting.images_written, s.accounting.images_written);
  EXPECT_EQ(d.accounting.bytes_written, s.accounting.bytes_written);
  EXPECT_EQ(d.accounting.deferred, s.accounting.deferred);
}

TEST(SnapshotCodec, SizeInvariantToCounterValues) {
  // The self-inclusive bytes_written accounting (size first, then the
  // counter set, then one encode) relies on this.
  RunSnapshot s = sample_snapshot();
  const std::size_t base = encode(s).size();
  s.accounting.bytes_written = 0xFFFFFFFFFFFFull;
  s.accounting.images_written = 9999;
  EXPECT_EQ(encode(s).size(), base);
  EXPECT_EQ(encoded_size(s), base);
}

TEST(SnapshotCodec, EncodedSizeCountsTheImageExactly) {
  for (const RunSnapshot& s : {RunSnapshot{}, sample_snapshot()}) {
    const std::vector<std::uint8_t> img = encode(s);
    EXPECT_EQ(encoded_size(s), img.size());
    EXPECT_EQ(img.capacity(), img.size()) << "the image reallocated";
  }
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

TEST(SnapshotCodec, RefusesFlatCountThatSplitsAnElement) {
  // Velocities go on the wire as 3 doubles per Vec3; their count follows
  // magic, version, fingerprint, the engine record, the LP-clock slot, the
  // client's step, t_start and force_update, and its 6 positions.  Drop the
  // last double and count 5: the image still parses, but 5 values are not
  // whole Vec3s.
  constexpr std::size_t kVelocityCountOffset =
      8 + 4 + 8 + 7 * 8 + 8 + 4 + 8 + 1 + (8 + 6 * 8);
  std::vector<std::uint8_t> img = encode(sample_snapshot());
  ASSERT_EQ(img[kVelocityCountOffset], 6u);
  img[kVelocityCountOffset] = 5;
  const auto last = img.begin() + kVelocityCountOffset + 8 + 5 * 8;
  img.erase(last, last + 8);
  reseal(img);
  expect_bad_image(img, "do not split");
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
  s.client.step = 3;
  opalsim::ckpt::write_image_atomic(path_, encode(s));
  s.client.step = 6;
  opalsim::ckpt::write_image_atomic(path_, encode(s));
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).client.step, 6);
  EXPECT_EQ(decode([this] {
              std::ifstream in(path_ + ".prev", std::ios::binary);
              return std::vector<std::uint8_t>(
                  (std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
            }()).client.step,
            3);
}

TEST_F(StoreTest, TornPrimaryFallsBackToPrev) {
  RunSnapshot s = sample_snapshot();
  s.client.step = 3;
  const auto good = encode(s);
  write_raw(path_ + ".prev", good);
  // Torn primary: half an image, as a mid-write crash leaves it.
  std::vector<std::uint8_t> torn(good.begin(),
                                 good.begin() + static_cast<long>(good.size() / 2));
  write_raw(path_, torn);
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).client.step, 3);
}

TEST_F(StoreTest, MissingPrimaryFallsBackToPrev) {
  RunSnapshot s = sample_snapshot();
  s.client.step = 4;
  write_raw(path_ + ".prev", encode(s));
  EXPECT_EQ(opalsim::ckpt::load_snapshot(path_).client.step, 4);
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
