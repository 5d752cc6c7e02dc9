#include "ckpt/snapshot.hpp"

#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/binio.hpp"
#include "util/crc32.hpp"
#include "util/fatal.hpp"
#include "util/run_tag.hpp"

namespace opalsim::ckpt {

namespace {

/// T or const T: one field list serves the writer, which walks a const
/// record, and the reader, which fills a mutable one.
template <class T, class U>
concept Record = std::same_as<std::remove_const_t<T>, U>;

/// The u64 after the queue counters: the per-LP clock count of the retired
/// parallel engines.  Written as 0; a non-zero count is refused, since this
/// engine has no LPs to restore clocks into.
struct RetiredLpClocks {};

// -- the image layout: one function per record, fields in wire order -------
//
// `io(a, b, ...)` writes or reads each field in turn: fixed-width scalars
// little-endian, RngState as four u64, and a vector as a u64 count followed
// by its elements.

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

void fields(auto& io, Record<ServerSnap> auto& sv) {
  io(sv.domain, sv.active, sv.materialized, sv.pairs_checked,
     sv.pairs_evaluated, sv.adopt_epoch);
}

void fields(auto& io, Record<MailboxItemSnap> auto& m) {
  io(m.src, m.tag, m.seq, m.checksum, m.corrupted, m.raw, m.payload_bytes);
}

void fields(auto& io, Record<NodeFaultSnap> auto& nf) {
  io(nf.node, nf.t_fail);
}

void fields(auto& io, Record<CpuSnap> auto& c) {
  io(c.add, c.mul, c.div, c.sqrt, c.exp, c.cmp, c.busy_seconds, c.cycles);
}

void fields(auto& io, Record<RunSnapshot> auto& s) {
  RetiredLpClocks lp_clocks;
  io(s.config_fingerprint);
  // engine
  io(s.now, s.next_event_seq, s.events_processed, s.q_pushes, s.q_pops,
     s.q_cancels, s.q_peak, lp_clocks);
  // client progress and minimizer
  io(s.step, s.t_start, s.force_update, s.positions, s.velocities,
     s.update_coords);
  io(s.min_step_size, s.min_has_prev, s.min_prev_energy, s.min_prev_pos,
     s.min_prev_grad, s.min_accepted, s.min_rejected);
  io(s.physics, s.metrics);
  // failover, servers, pvm
  io(s.failover_epoch, s.assignment, s.servers, s.next_send_seq,
     s.mailboxes);
  // sciddle
  io(s.alive, s.jitter_rng, s.rpc_retries, s.rpc_timeouts, s.rpc_heartbeats,
     s.rpc_stale_discarded, s.rpc_servers_failed, s.rpc_recovery_time_s,
     s.next_call_id, s.next_probe_id);
  // fault model
  io(s.node_faults, s.fault_enabled, s.f_seen, s.f_dropped, s.f_duplicated,
     s.f_corrupted, s.f_stalls, s.message_rng, s.corrupt_rng, s.stall_rng);
  // machine, observability, checkpoint accounting
  io(s.cpus, s.net_messages, s.net_bytes, s.sink_next_seq, s.images_written,
     s.bytes_written, s.deferred);
}

// -- the two directions ------------------------------------------------------

class Writer {
 public:
  template <class... T>
  void operator()(const T&... xs) {
    (field(xs), ...);
  }
  std::size_t size() const noexcept { return w_.bytes().size(); }
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
  template <class T>
  void field(const std::vector<T>& xs) {
    w_.put_u64(xs.size());
    for (const auto& x : xs) field(x);
  }
  template <class T>
  void field(const T& record) {
    fields(*this, record);
  }

  util::BinWriter w_;
};

/// Wire size of a default T (empty vectors are a bare count): the least
/// any encoded T can occupy.
template <class T>
std::size_t min_wire_bytes() {
  Writer w;
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
  template <class T>
  void field(std::vector<T>& xs) {
    // The count is checked against the bytes left before resize allocates.
    xs.resize(r_.get_count(min_wire_bytes<T>()));
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

}  // namespace

std::vector<std::uint8_t> encode(const RunSnapshot& s) {
  Writer w;
  for (const char c : kMagic) w(static_cast<std::uint8_t>(c));
  w(kVersion, s);
  std::vector<std::uint8_t> image = w.take();
  const std::uint32_t crc = util::crc32(image.data(), image.size());
  for (int i = 0; i < 4; ++i) {
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
