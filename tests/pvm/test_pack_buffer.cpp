#include "pvm/pack_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace {

using opalsim::pvm::PackBuffer;

TEST(PackBuffer, RoundTripsScalars) {
  PackBuffer b;
  b.pack_i32(-42);
  b.pack_u64(1234567890123ull);
  b.pack_f64(3.14159);
  EXPECT_EQ(b.unpack_i32(), -42);
  EXPECT_EQ(b.unpack_u64(), 1234567890123ull);
  EXPECT_DOUBLE_EQ(b.unpack_f64(), 3.14159);
  EXPECT_TRUE(b.fully_consumed());
}

TEST(PackBuffer, RoundTripsString) {
  PackBuffer b;
  b.pack_string("update_lists");
  EXPECT_EQ(b.unpack_string(), "update_lists");
}

TEST(PackBuffer, RoundTripsEmptyString) {
  PackBuffer b;
  b.pack_string("");
  EXPECT_EQ(b.unpack_string(), "");
}

TEST(PackBuffer, RoundTripsDoubleArray) {
  PackBuffer b;
  std::vector<double> xs{1.0, -2.5, 1e300, 0.0};
  b.pack_f64_array(xs);
  EXPECT_EQ(b.unpack_f64_array(), xs);
}

TEST(PackBuffer, RoundTripsLargeArray) {
  PackBuffer b;
  std::vector<double> xs(10000);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 0.25 * i;
  b.pack_f64_array(xs);
  EXPECT_EQ(b.unpack_f64_array(), xs);
}

TEST(PackBuffer, ByteSizeCountsPayload) {
  PackBuffer b;
  b.pack_f64(1.0);                         // 8
  b.pack_f64_array(std::vector<double>(10, 0.0));  // 8 (len) + 80
  EXPECT_EQ(b.byte_size(), 8u + 8u + 80u);
}

TEST(PackBuffer, EmptyBufferHasZeroSize) {
  PackBuffer b;
  EXPECT_EQ(b.byte_size(), 0u);
  EXPECT_TRUE(b.fully_consumed());
}

TEST(PackBuffer, TypeMismatchThrows) {
  PackBuffer b;
  b.pack_f64(1.0);
  EXPECT_THROW((void)b.unpack_i32(), std::runtime_error);
}

TEST(PackBuffer, UnpackPastEndThrows) {
  PackBuffer b;
  b.pack_i32(1);
  (void)b.unpack_i32();
  EXPECT_THROW((void)b.unpack_i32(), opalsim::pvm::UnpackError);
}

TEST(PackBuffer, OrderMatters) {
  PackBuffer b;
  b.pack_i32(1);
  b.pack_f64(2.0);
  EXPECT_EQ(b.unpack_i32(), 1);
  EXPECT_DOUBLE_EQ(b.unpack_f64(), 2.0);
}

TEST(PackBuffer, RewindAllowsRereading) {
  PackBuffer b;
  b.pack_i32(7);
  EXPECT_EQ(b.unpack_i32(), 7);
  b.rewind();
  EXPECT_EQ(b.unpack_i32(), 7);
}

TEST(PackBuffer, InterleavedTypesRoundTrip) {
  PackBuffer b;
  b.pack_string("nbint");
  b.pack_u64(99);
  b.pack_f64_array(std::vector<double>{1, 2, 3});
  b.pack_i32(-1);
  EXPECT_EQ(b.unpack_string(), "nbint");
  EXPECT_EQ(b.unpack_u64(), 99u);
  EXPECT_EQ(b.unpack_f64_array(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(b.unpack_i32(), -1);
  EXPECT_TRUE(b.fully_consumed());
}

}  // namespace

namespace {

TEST(PackBuffer, RoundTripsU32Array) {
  opalsim::pvm::PackBuffer b;
  std::vector<std::uint32_t> xs{0, 1, 4289, 0xffffffffu};
  b.pack_u32_array(xs);
  EXPECT_EQ(b.unpack_u32_array(), xs);
}

TEST(PackBuffer, U32ArrayByteSizeIsFourPerEntry) {
  opalsim::pvm::PackBuffer b;
  b.pack_u32_array(std::vector<std::uint32_t>(10, 7));
  EXPECT_EQ(b.byte_size(), 8u + 40u);  // length header + 10 * 4
}

using opalsim::pvm::UnpackError;

TEST(PackBuffer, UnpackErrorIsRuntimeError) {
  // Callers that caught the old generic exceptions keep working.
  opalsim::pvm::PackBuffer b;
  EXPECT_THROW((void)b.unpack_u64(), std::runtime_error);
}

TEST(PackBuffer, TypeMismatchThrowsUnpackError) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64(1.0);
  EXPECT_THROW((void)b.unpack_u64(), UnpackError);
}

TEST(PackBuffer, CorruptedLengthFieldThrowsInsteadOfAllocating) {
  // A corrupted length word can decode to a huge count; the old size check
  // `cursor + n > size` would overflow and pass, reading out of bounds (or
  // the allocation would throw bad_alloc).  The count must be validated
  // against the bytes actually present before anything else.
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>{1.0, 2.0, 3.0});
  // The u64 length sits at bytes [1, 9) (after the U64 tag byte); flip its
  // high byte so it decodes to ~2^56 elements.
  b.corrupt_byte(8);
  EXPECT_THROW((void)b.unpack_f64_array(), UnpackError);
}

TEST(PackBuffer, CorruptedStringLengthThrows) {
  opalsim::pvm::PackBuffer b;
  b.pack_string("nbint");
  b.corrupt_byte(8);  // high byte of the length word
  EXPECT_THROW((void)b.unpack_string(), UnpackError);
}

TEST(PackBuffer, ChecksumDetectsSingleByteCorruption) {
  // The checksum hashes 8-byte words in four 32-byte-stride lanes, then up
  // to three leftover words, then up to seven tail bytes.  String bodies of
  // 0..120 chars give raw sizes 10..130: inline (<= 64 B) and heap bodies,
  // 0-4 full lane strides, every leftover word count and every tail length.
  // Inverting any one byte must change the checksum, and rebuilding the
  // same bytes with from_raw must not (only the bytes matter).
  std::vector<PackBuffer> bodies;
  {
    PackBuffer b;
    b.pack_f64_array(std::vector<double>{1.0, -2.5, 4.0});
    bodies.push_back(b);
  }
  for (std::size_t len = 0; len <= 120; ++len) {
    std::string text(len, '\0');
    for (std::size_t k = 0; k < len; ++k)
      text[k] = static_cast<char>(k * 37 + len);
    PackBuffer b;
    b.pack_string(text);
    bodies.push_back(b);
  }
  ASSERT_TRUE(bodies[1].is_inline());
  ASSERT_FALSE(bodies.back().is_inline());
  for (const PackBuffer& b : bodies) {
    SCOPED_TRACE("raw size " + std::to_string(b.raw_size()));
    const std::uint64_t clean = b.checksum();
    EXPECT_EQ(PackBuffer::from_raw(b.raw_bytes(), b.byte_size()).checksum(),
              clean);
    for (std::size_t pos = 0; pos < b.raw_size(); ++pos) {
      PackBuffer c = b;
      c.corrupt_byte(pos);
      EXPECT_NE(c.checksum(), clean) << "missed corruption at byte " << pos;
    }
  }
}

TEST(PackBuffer, ChecksumIsStableAcrossCopies) {
  opalsim::pvm::PackBuffer b;
  b.pack_string("update");
  b.pack_f64(2.0);
  const opalsim::pvm::PackBuffer c = b;
  EXPECT_EQ(b.checksum(), c.checksum());
}

TEST(PackBuffer, CorruptByteOnEmptyBufferIsNoop) {
  opalsim::pvm::PackBuffer b;
  b.corrupt_byte(17);  // must not crash or divide by zero
  EXPECT_EQ(b.raw_size(), 0u);
}

TEST(PackBuffer, CorruptPositionWrapsAroundBufferSize) {
  opalsim::pvm::PackBuffer b;
  b.pack_i32(7);
  const std::uint64_t clean = b.checksum();
  b.corrupt_byte(b.raw_size());  // wraps to byte 0 (the type tag)
  EXPECT_NE(b.checksum(), clean);
  EXPECT_THROW((void)b.unpack_i32(), UnpackError);
}

TEST(PackBuffer, AppendConcatenatesItems) {
  opalsim::pvm::PackBuffer a, b;
  a.pack_i32(1);
  b.pack_f64(2.5);
  b.pack_string("x");
  a.append(b);
  EXPECT_EQ(a.unpack_i32(), 1);
  EXPECT_DOUBLE_EQ(a.unpack_f64(), 2.5);
  EXPECT_EQ(a.unpack_string(), "x");
  EXPECT_TRUE(a.fully_consumed());
  EXPECT_EQ(a.byte_size(), 4u + 8u + 8u + 1u);
}

// -- zero-copy storage semantics --------------------------------------------

TEST(PackBuffer, SmallBuffersStayInline) {
  opalsim::pvm::PackBuffer b;
  b.pack_u64(7);       // 9 encoded bytes
  b.pack_f64(1.5);     // 9 more
  b.pack_i32(3);       // 5 more: still well under the 64-byte inline cap
  EXPECT_TRUE(b.is_inline());
  const opalsim::pvm::PackBuffer c = b;  // inline copies never share
  EXPECT_FALSE(b.shares_storage(c));
  EXPECT_EQ(c.checksum(), b.checksum());
}

TEST(PackBuffer, LargeBodyPromotesToHeapAndCopiesShare) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>(512, 1.25));
  EXPECT_FALSE(b.is_inline());
  const opalsim::pvm::PackBuffer c1 = b;
  const opalsim::pvm::PackBuffer c2 = b;
  EXPECT_TRUE(c1.shares_storage(b));
  EXPECT_TRUE(c2.shares_storage(c1));  // N-way fan-out: one allocation
}

TEST(PackBuffer, SharedCopiesUnpackIndependently) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>(512, 2.0));
  b.pack_i32(9);
  opalsim::pvm::PackBuffer c = b;
  ASSERT_TRUE(c.shares_storage(b));
  // Cursors are per-copy: consuming one copy leaves the other untouched.
  EXPECT_EQ(c.unpack_f64_array().size(), 512u);
  EXPECT_EQ(c.unpack_i32(), 9);
  EXPECT_TRUE(c.fully_consumed());
  EXPECT_FALSE(b.fully_consumed());
  EXPECT_EQ(b.unpack_f64_array().size(), 512u);
  EXPECT_TRUE(c.shares_storage(b));  // reads never broke the sharing
}

TEST(PackBuffer, PackAfterCopyTriggersCopyOnWrite) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>(512, 3.0));
  opalsim::pvm::PackBuffer c = b;
  ASSERT_TRUE(c.shares_storage(b));
  c.pack_i32(1);  // mutation: c must detach, b must not see the new item
  EXPECT_FALSE(c.shares_storage(b));
  EXPECT_EQ(c.unpack_f64_array().size(), 512u);
  EXPECT_EQ(c.unpack_i32(), 1);
  EXPECT_EQ(b.unpack_f64_array().size(), 512u);
  EXPECT_TRUE(b.fully_consumed());
}

TEST(PackBuffer, CorruptByteTriggersCopyOnWrite) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>(512, 4.0));
  const std::uint64_t clean = b.checksum();
  opalsim::pvm::PackBuffer c = b;
  c.corrupt_byte(100);
  EXPECT_FALSE(c.shares_storage(b));
  EXPECT_NE(c.checksum(), clean);
  EXPECT_EQ(b.checksum(), clean);  // the shared original is untouched
}

TEST(PackBuffer, AppendOntoEmptyAdoptsStorage) {
  opalsim::pvm::PackBuffer body;
  body.pack_f64_array(std::vector<double>(512, 5.0));
  opalsim::pvm::PackBuffer env;
  env.append(body);  // empty destination: adopt, don't copy
  EXPECT_TRUE(env.shares_storage(body));
  EXPECT_EQ(env.byte_size(), body.byte_size());
  EXPECT_EQ(env.unpack_f64_array().size(), 512u);
}

TEST(PackBuffer, AppendOntoNonEmptyDetaches) {
  opalsim::pvm::PackBuffer body;
  body.pack_f64_array(std::vector<double>(512, 6.0));
  opalsim::pvm::PackBuffer env;
  env.pack_u64(42);
  env.append(body);
  EXPECT_FALSE(env.shares_storage(body));
  EXPECT_EQ(env.unpack_u64(), 42u);
  EXPECT_EQ(env.unpack_f64_array().size(), 512u);
}

TEST(PackBuffer, SelfAppendDoublesContents) {
  opalsim::pvm::PackBuffer b;
  b.pack_i32(5);
  b.append(b);
  EXPECT_EQ(b.unpack_i32(), 5);
  EXPECT_EQ(b.unpack_i32(), 5);
  EXPECT_TRUE(b.fully_consumed());
  EXPECT_EQ(b.byte_size(), 8u);

  opalsim::pvm::PackBuffer big;
  big.pack_f64_array(std::vector<double>(512, 7.0));
  big.append(big);
  EXPECT_EQ(big.unpack_f64_array().size(), 512u);
  EXPECT_EQ(big.unpack_f64_array().size(), 512u);
  EXPECT_TRUE(big.fully_consumed());
}

TEST(PackBuffer, DeepCopyBreaksSharing) {
  opalsim::pvm::PackBuffer b;
  b.pack_f64_array(std::vector<double>(512, 8.0));
  const opalsim::pvm::PackBuffer d = b.deep_copy();
  EXPECT_FALSE(d.shares_storage(b));
  EXPECT_EQ(d.checksum(), b.checksum());
}

TEST(PackBuffer, InlineGrowthCrossesCapMidItem) {
  // Pack items until the encoded size crosses the inline capacity: contents
  // must survive the promotion byte-for-byte.
  opalsim::pvm::PackBuffer b;
  for (std::uint64_t i = 0; i < 12; ++i) b.pack_u64(i);  // 12 * 9 = 108 bytes
  EXPECT_FALSE(b.is_inline());
  for (std::uint64_t i = 0; i < 12; ++i) EXPECT_EQ(b.unpack_u64(), i);
  EXPECT_TRUE(b.fully_consumed());
}

// -- mutation tier: typed unpack of truncated or mistyped payloads ----------
//
// A received message, or a mailbox item restored from a checkpoint image,
// reaches the typed unpack calls with whatever bytes it carries.  Each
// fixture holds every item type; each mutation is a truncation to every
// length, or every other value of one tag byte or one length-field byte.
// Unpacking in packing order must end in values or in UnpackError: an
// escaped exception fails the test, and an out-of-bounds read stops it
// under ASan.

enum class Item { I32, U64, F64, Str, F64Arr, U32Arr };

/// A packed buffer and its items in packing order, with each string's or
/// array's body size in bytes (0 for scalars).
struct Fixture {
  std::string name;
  PackBuffer buf;
  std::vector<std::pair<Item, std::size_t>> items;

  void i32(std::int32_t v) {
    buf.pack_i32(v);
    items.emplace_back(Item::I32, 0);
  }
  void u64(std::uint64_t v) {
    buf.pack_u64(v);
    items.emplace_back(Item::U64, 0);
  }
  void f64(double v) {
    buf.pack_f64(v);
    items.emplace_back(Item::F64, 0);
  }
  void str(const std::string& v) {
    buf.pack_string(v);
    items.emplace_back(Item::Str, v.size());
  }
  void f64s(const std::vector<double>& v) {
    buf.pack_f64_array(v);
    items.emplace_back(Item::F64Arr, v.size() * sizeof(double));
  }
  void u32s(const std::vector<std::uint32_t>& v) {
    buf.pack_u32_array(v);
    items.emplace_back(Item::U32Arr, v.size() * sizeof(std::uint32_t));
  }
};

/// 58 encoded bytes, inline; the f64 array is empty.
Fixture inline_fixture() {
  Fixture f{"inline", {}, {}};
  f.i32(-7);
  f.u64(0x0123456789abcdefull);
  f.f64(2.5);
  f.str("a");
  f.f64s({});
  f.u32s({7});
  return f;
}

/// Heap-backed; the string and both arrays have several elements.
Fixture heap_fixture() {
  Fixture f{"heap", {}, {}};
  f.i32(42);
  f.u64(1ull << 40);
  f.f64(-1e300);
  f.str("update_lists");
  f.f64s({1.0, -2.0, 3.5, 0.0, 1e-300, 6.0});
  f.u32s({1, 2, 3, 65536, 0xffffffffu});
  return f;
}

/// Offsets of every tag byte and every length-field byte of `f`'s
/// encoding: an item is one tag byte and its payload, and a string or
/// array is a u64 count item followed by one tagged body.
struct Layout {
  std::vector<std::size_t> tags, lengths;
  std::size_t end = 0;
};

Layout layout_of(const Fixture& f) {
  Layout l;
  for (const auto& [item, body] : f.items) {
    l.tags.push_back(l.end);
    switch (item) {
      case Item::I32:
        l.end += 1 + 4;
        break;
      case Item::U64:
      case Item::F64:
        l.end += 1 + 8;
        break;
      case Item::Str:
      case Item::F64Arr:
      case Item::U32Arr:
        for (std::size_t k = 1; k <= 8; ++k) l.lengths.push_back(l.end + k);
        l.end += 1 + 8;
        l.tags.push_back(l.end);
        l.end += 1 + body;
        break;
    }
  }
  return l;
}

/// Unpacks `b` in `f`'s packing order.  Returns what escaped other than
/// UnpackError, or "" when every item unpacked or UnpackError ended it.
std::string unpack_in_order(PackBuffer b, const Fixture& f) {
  try {
    for (const auto& entry : f.items) {
      switch (entry.first) {
        case Item::I32:
          b.unpack_i32();
          break;
        case Item::U64:
          b.unpack_u64();
          break;
        case Item::F64:
          b.unpack_f64();
          break;
        case Item::Str:
          b.unpack_string();
          break;
        case Item::F64Arr:
          b.unpack_f64_array();
          break;
        case Item::U32Arr:
          b.unpack_u32_array();
          break;
      }
    }
  } catch (const opalsim::pvm::UnpackError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("escaped: ") + e.what();
  }
  return "";
}

std::vector<Fixture> mutation_fixtures() {
  std::vector<Fixture> fs;
  fs.push_back(inline_fixture());
  fs.push_back(heap_fixture());
  return fs;
}

TEST(PackBufferMutation, FixturesCoverBothStoragesAndTheLayout) {
  for (const Fixture& f : mutation_fixtures()) {
    SCOPED_TRACE(f.name);
    const Layout l = layout_of(f);
    EXPECT_EQ(l.end, f.buf.raw_size());
    EXPECT_EQ(l.tags.size(), 9u);      // six items, three count items
    EXPECT_EQ(l.lengths.size(), 24u);  // three 8-byte counts
    EXPECT_EQ(f.buf.is_inline(), f.name == "inline");
    PackBuffer b = f.buf;
    EXPECT_EQ(unpack_in_order(b, f), "");
    for (std::size_t at : l.tags) {
      EXPECT_LE(f.buf.raw_bytes()[at], 5) << "offset " << at;
    }
  }
}

TEST(PackBufferMutation, EveryTruncationEndsInValuesOrUnpackError) {
  for (const Fixture& f : mutation_fixtures()) {
    const std::span<const std::uint8_t> raw = f.buf.raw_bytes();
    for (std::size_t len = 0; len < raw.size(); ++len) {
      const PackBuffer b =
          PackBuffer::from_raw(raw.first(len), f.buf.byte_size());
      EXPECT_EQ(unpack_in_order(b, f), "")
          << "fixture " << f.name << ": truncated to " << len << " of "
          << raw.size() << " bytes";
    }
  }
}

TEST(PackBufferMutation, EveryTagAndLengthByteChangeEndsInValuesOrError) {
  int mutations = 0;
  for (const Fixture& f : mutation_fixtures()) {
    const Layout l = layout_of(f);
    std::vector<std::size_t> offsets = l.tags;
    offsets.insert(offsets.end(), l.lengths.begin(), l.lengths.end());
    const std::span<const std::uint8_t> raw = f.buf.raw_bytes();
    for (const std::size_t at : offsets) {
      for (int v = 0; v < 256; ++v) {
        if (v == raw[at]) continue;
        std::vector<std::uint8_t> bytes(raw.begin(), raw.end());
        bytes[at] = static_cast<std::uint8_t>(v);
        ++mutations;
        EXPECT_EQ(unpack_in_order(
                      PackBuffer::from_raw(bytes, f.buf.byte_size()), f),
                  "")
            << "fixture " << f.name << ": byte " << at << " "
            << static_cast<int>(raw[at]) << " := " << v;
      }
    }
  }
  EXPECT_EQ(mutations, 2 * 33 * 255);
}

}  // namespace
