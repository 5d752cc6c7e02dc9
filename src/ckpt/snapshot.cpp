#include "ckpt/snapshot.hpp"

#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/binio.hpp"
#include "util/crc32.hpp"
#include "util/fatal.hpp"
#include "util/rng.hpp"
#include "util/run_tag.hpp"

namespace opalsim::ckpt {

namespace {

/// T or const T: one field list serves the writer, which walks a const
/// record, and the reader, which fills a mutable one.
template <class T, class U>
concept Record = std::same_as<std::remove_const_t<T>, U>;

/// The u64 after the engine record: the per-LP clock count of the retired
/// parallel engines.  Written as 0; a non-zero count is refused, since this
/// engine has no LPs to restore clocks into.
struct RetiredLpClocks {};

using RngState = util::Xoshiro256::State;
using opal::PairIdx;
using opal::ParallelOpal;
using opal::Vec3;

/// Scalars per element of a vector written flat: a vector of Vec3 or
/// PairIdx goes on the wire as the count and values of its coordinates or
/// indices.
template <class T>
constexpr std::size_t kFlat = 1;
template <>
constexpr std::size_t kFlat<Vec3> = 3;
template <>
constexpr std::size_t kFlat<PairIdx> = 2;

// -- the image layout: one function per record, fields in wire order -------
//
// `io(a, b, ...)` writes or reads each field in turn: fixed-width scalars
// little-endian, RngState as four u64, and a vector as a u64 count followed
// by its elements (flattened, for Vec3 and PairIdx).

void fields(auto& io, Record<Vec3> auto& v) { io(v.x, v.y, v.z); }

void fields(auto& io, Record<PairIdx> auto& p) { io(p.i, p.j); }

void fields(auto& io, Record<sim::EventQueueStats> auto& q) {
  io(q.pushes, q.pops, q.cancels, q.peak_size);
}

void fields(auto& io, Record<sim::Engine::Snapshot> auto& e) {
  io(e.now, e.next_seq, e.events_processed, e.queue);
}

void fields(auto& io, Record<opal::SimResult> auto& p) {
  io(p.evdw, p.ecoul, p.bonded.bond, p.bonded.angle, p.bonded.dihedral,
     p.bonded.improper, p.kinetic, p.temperature, p.pressure, p.volume);
}

void fields(auto& io, Record<opal::RunMetrics> auto& m) {
  io(m.par_update, m.par_nbint, m.seq_comp, m.call_upd, m.return_upd,
     m.call_nbi, m.return_nbi, m.sync, m.idle, m.recovery, m.wall,
     m.pairs_checked, m.pairs_evaluated, m.list_updates, m.retries,
     m.timeouts, m.heartbeats, m.failovers, m.servers_failed,
     m.msgs_dropped, m.msgs_duplicated, m.msgs_corrupted);
}

void fields(auto& io, Record<opal::SteepestDescent::Snapshot> auto& m) {
  io(m.step, m.has_prev, m.prev_energy, m.prev_pos, m.prev_grad, m.accepted,
     m.rejected);
}

void fields(auto& io, Record<ParallelOpal::ClientSnapshot> auto& c) {
  io(c.step, c.t_start, c.force_update, c.positions, c.velocities,
     c.update_coords, c.minimizer, c.physics, c.metrics, c.failover_epoch,
     c.assignment);
}

void fields(auto& io, Record<opal::ServerDomain::Snapshot> auto& d) {
  io(d.domain, d.active, d.materialized);
}

void fields(auto& io, Record<ParallelOpal::ServerSnapshot> auto& sv) {
  io(sv.lists, sv.pairs_checked, sv.pairs_evaluated, sv.adopt_epoch);
}

void fields(auto& io, Record<pvm::Message> auto& m) {
  io(m.src, m.tag, m.seq, m.checksum, m.corrupted, m.body);
}

void fields(auto& io, Record<pvm::PvmSystem::Snapshot> auto& p) {
  io(p.next_send_seq, p.mailboxes);
}

void fields(auto& io, Record<sciddle::RecoveryTotals> auto& t) {
  io(t.retries, t.timeouts, t.heartbeats, t.stale_discarded,
     t.servers_failed, t.recovery_time_s);
}

void fields(auto& io, Record<sciddle::Rpc::Snapshot> auto& r) {
  io(r.alive, r.jitter_rng, r.totals, r.next_call_id, r.next_probe_id);
}

void fields(auto& io, Record<sim::NodeFault> auto& nf) {
  io(nf.node, nf.t_fail);
}

void fields(auto& io, Record<sim::FaultModel::Counters> auto& c) {
  io(c.messages_seen, c.dropped, c.duplicated, c.corrupted, c.daemon_stalls);
}

void fields(auto& io, Record<sim::FaultModel::Snapshot> auto& f) {
  io(f.node_faults, f.enabled, f.counters, f.message_rng, f.corrupt_rng,
     f.stall_rng);
}

void fields(auto& io, Record<hpm::OpCounts> auto& o) {
  io(o.add, o.mul, o.div, o.sqrt, o.exp, o.cmp);
}

void fields(auto& io, Record<hpm::HpmCounter::Snapshot> auto& c) {
  io(c.ops, c.busy_seconds, c.cycles);
}

void fields(auto& io, Record<mach::Machine::Snapshot> auto& m) {
  io(m.fault, m.cpus, m.net_messages, m.net_bytes);
}

void fields(auto& io, Record<Accounting> auto& a) {
  io(a.images_written, a.bytes_written, a.deferred);
}

void fields(auto& io, Record<RunSnapshot> auto& s) {
  RetiredLpClocks lp_clocks;
  io(s.config_fingerprint, s.engine, lp_clocks, s.client, s.servers, s.pvm,
     s.rpc, s.machine, s.sink_next_seq, s.accounting);
}

// -- the two directions ------------------------------------------------------

/// Stands in for util::BinWriter to size an image without writing it.
class ByteCounter {
 public:
  void put_u8(std::uint8_t) { n_ += 1; }
  void put_u32(std::uint32_t) { n_ += 4; }
  void put_u64(std::uint64_t) { n_ += 8; }
  void put_i32(std::int32_t) { n_ += 4; }
  void put_f64(double) { n_ += 8; }
  void put_bool(bool) { n_ += 1; }
  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Walks the field lists into `Sink`: util::BinWriter encodes, ByteCounter
/// counts the bytes the encoding takes.
template <class Sink>
class Writer {
 public:
  Writer() = default;
  /// Reserves `bytes` up front, so the encoding never reallocates.
  explicit Writer(std::size_t bytes) { w_.reserve(bytes); }

  template <class... T>
  void operator()(const T&... xs) {
    (field(xs), ...);
  }
  std::size_t size() const noexcept { return w_.size(); }  // ByteCounter
  std::vector<std::uint8_t> take() noexcept { return w_.take(); }

 private:
  void field(std::uint8_t v) { w_.put_u8(v); }
  void field(std::uint32_t v) { w_.put_u32(v); }
  void field(std::uint64_t v) { w_.put_u64(v); }
  void field(std::int32_t v) { w_.put_i32(v); }
  void field(double v) { w_.put_f64(v); }
  void field(bool v) { w_.put_bool(v); }
  void field(RetiredLpClocks) { w_.put_u64(0); }
  void field(const RngState& s) {
    for (const std::uint64_t x : s) field(x);
  }
  /// Encoded bytes (type tags included), then the payload byte count.
  void field(const pvm::PackBuffer& b) {
    const std::span<const std::uint8_t> raw = b.raw_bytes();
    w_.put_u64(raw.size());
    for (const std::uint8_t x : raw) field(x);
    field(static_cast<std::uint64_t>(b.byte_size()));
  }
  template <class T>
  void field(const std::vector<T>& xs) {
    w_.put_u64(kFlat<T> * xs.size());
    for (const auto& x : xs) field(x);
  }
  template <class T>
  void field(const T& record) {
    fields(*this, record);
  }

  Sink w_;
};

/// Wire size of a default T (empty vectors are a bare count): the least
/// any encoded T can occupy.
template <class T>
std::size_t min_wire_bytes() {
  Writer<ByteCounter> w;
  w(T{});
  return w.size();
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : r_(bytes) {}

  template <class... T>
  void operator()(T&... xs) {
    (field(xs), ...);
  }
  bool done() const noexcept { return r_.done(); }

 private:
  void field(std::uint8_t& v) { v = r_.get_u8(); }
  void field(std::uint32_t& v) { v = r_.get_u32(); }
  void field(std::uint64_t& v) { v = r_.get_u64(); }
  void field(std::int32_t& v) { v = r_.get_i32(); }
  void field(double& v) { v = r_.get_f64(); }
  void field(bool& v) { v = r_.get_bool(); }
  void field(RetiredLpClocks) {
    const std::uint64_t n = r_.get_u64();
    if (n != 0) {
      throw util::DecodeError(std::to_string(n) +
                              " per-LP clocks; only single-LP images resume");
    }
  }
  void field(RngState& s) {
    for (std::uint64_t& x : s) field(x);
  }
  void field(pvm::PackBuffer& b) {
    std::vector<std::uint8_t> raw;
    std::uint64_t payload_bytes = 0;
    (*this)(raw, payload_bytes);
    b = pvm::PackBuffer::from_raw(raw, payload_bytes);
  }
  template <class T>
  void field(std::vector<T>& xs) {
    // The count is checked against the bytes left before resize allocates.
    const std::size_t n = r_.get_count(min_wire_bytes<T>() / kFlat<T>);
    if (n % kFlat<T> != 0) {
      throw util::DecodeError(std::to_string(n) + " values do not split " +
                              "into elements of " + std::to_string(kFlat<T>));
    }
    xs.resize(n / kFlat<T>);
    for (auto& x : xs) field(x);
  }
  void field(std::vector<bool>& xs) {
    xs.resize(r_.get_count(1));
    for (auto&& x : xs) x = r_.get_bool();
  }
  template <class T>
  void field(T& record) {
    fields(*this, record);
  }

  util::BinReader r_;
};

/// Everything before the CRC trailer.
template <class Sink>
void write_image(Writer<Sink>& w, const RunSnapshot& s) {
  for (const char c : kMagic) w(static_cast<std::uint8_t>(c));
  w(kVersion, s);
}

constexpr std::size_t kCrcBytes = 4;

}  // namespace

std::size_t encoded_size(const RunSnapshot& s) {
  Writer<ByteCounter> c;
  write_image(c, s);
  return c.size() + kCrcBytes;
}

std::vector<std::uint8_t> encode(const RunSnapshot& s) {
  Writer<util::BinWriter> w(encoded_size(s));
  write_image(w, s);
  std::vector<std::uint8_t> image = w.take();
  const std::uint32_t crc = util::crc32(image.data(), image.size());
  for (std::size_t i = 0; i < kCrcBytes; ++i) {
    image.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return image;
}

RunSnapshot decode(const std::vector<std::uint8_t>& image) {
  const auto bad = [](const std::string& why) -> RunSnapshot {
    throw util::FatalError("ckpt", "bad checkpoint image: " + why,
                           util::current_run_tag());
  };
  if (image.size() < sizeof(kMagic) + 4 + 4) return bad("truncated header");
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return bad("magic mismatch");
  }
  // Verify the CRC trailer before interpreting any payload byte.
  const std::size_t body = image.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(image[body + i]) << (8 * i);
  }
  if (util::crc32(image.data(), body) != stored) return bad("CRC mismatch");

  try {
    Reader r({image.data() + sizeof(kMagic), body - sizeof(kMagic)});
    std::uint32_t version = 0;
    r(version);
    if (version != kVersion) {
      return bad("version " + std::to_string(version) + ", expected " +
                 std::to_string(kVersion));
    }
    RunSnapshot s;
    r(s);
    if (!r.done()) return bad("trailing bytes after payload");
    return s;
  } catch (const util::DecodeError& e) {
    return bad(e.what());
  }
}

}  // namespace opalsim::ckpt
