#include "ckpt/snapshot.hpp"

#include <cstring>

#include "util/binio.hpp"
#include "util/crc32.hpp"
#include "util/fatal.hpp"
#include "util/run_tag.hpp"

namespace opalsim::ckpt {

namespace {

void put_rng(util::BinWriter& w, const RngState& s) {
  for (const std::uint64_t x : s) w.put_u64(x);
}

RngState get_rng(util::BinReader& r) {
  RngState s{};
  for (auto& x : s) x = r.get_u64();
  return s;
}

void put_u32_vec(util::BinWriter& w, const std::vector<std::uint32_t>& xs) {
  w.put_u64(xs.size());
  for (const std::uint32_t x : xs) w.put_u32(x);
}

std::vector<std::uint32_t> get_u32_vec(util::BinReader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining() / 4) {
    throw util::DecodeError("ckpt: u32 vector length exceeds buffer");
  }
  std::vector<std::uint32_t> xs(n);
  for (auto& x : xs) x = r.get_u32();
  return xs;
}

void put_metrics(util::BinWriter& w, const opal::RunMetrics& m) {
  w.put_f64(m.par_update);
  w.put_f64(m.par_nbint);
  w.put_f64(m.seq_comp);
  w.put_f64(m.call_upd);
  w.put_f64(m.return_upd);
  w.put_f64(m.call_nbi);
  w.put_f64(m.return_nbi);
  w.put_f64(m.sync);
  w.put_f64(m.idle);
  w.put_f64(m.recovery);
  w.put_f64(m.wall);
  w.put_u64(m.pairs_checked);
  w.put_u64(m.pairs_evaluated);
  w.put_u64(m.list_updates);
  w.put_u64(m.retries);
  w.put_u64(m.timeouts);
  w.put_u64(m.heartbeats);
  w.put_u64(m.failovers);
  w.put_u64(m.servers_failed);
  w.put_u64(m.msgs_dropped);
  w.put_u64(m.msgs_duplicated);
  w.put_u64(m.msgs_corrupted);
}

opal::RunMetrics get_metrics(util::BinReader& r) {
  opal::RunMetrics m;
  m.par_update = r.get_f64();
  m.par_nbint = r.get_f64();
  m.seq_comp = r.get_f64();
  m.call_upd = r.get_f64();
  m.return_upd = r.get_f64();
  m.call_nbi = r.get_f64();
  m.return_nbi = r.get_f64();
  m.sync = r.get_f64();
  m.idle = r.get_f64();
  m.recovery = r.get_f64();
  m.wall = r.get_f64();
  m.pairs_checked = r.get_u64();
  m.pairs_evaluated = r.get_u64();
  m.list_updates = r.get_u64();
  m.retries = r.get_u64();
  m.timeouts = r.get_u64();
  m.heartbeats = r.get_u64();
  m.failovers = r.get_u64();
  m.servers_failed = r.get_u64();
  m.msgs_dropped = r.get_u64();
  m.msgs_duplicated = r.get_u64();
  m.msgs_corrupted = r.get_u64();
  return m;
}

void put_physics(util::BinWriter& w, const opal::SimResult& p) {
  w.put_f64(p.evdw);
  w.put_f64(p.ecoul);
  w.put_f64(p.bonded.bond);
  w.put_f64(p.bonded.angle);
  w.put_f64(p.bonded.dihedral);
  w.put_f64(p.bonded.improper);
  w.put_f64(p.kinetic);
  w.put_f64(p.temperature);
  w.put_f64(p.pressure);
  w.put_f64(p.volume);
}

opal::SimResult get_physics(util::BinReader& r) {
  opal::SimResult p;
  p.evdw = r.get_f64();
  p.ecoul = r.get_f64();
  p.bonded.bond = r.get_f64();
  p.bonded.angle = r.get_f64();
  p.bonded.dihedral = r.get_f64();
  p.bonded.improper = r.get_f64();
  p.kinetic = r.get_f64();
  p.temperature = r.get_f64();
  p.pressure = r.get_f64();
  p.volume = r.get_f64();
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode(const RunSnapshot& s) {
  util::BinWriter w;
  for (const char c : kMagic) w.put_u8(static_cast<std::uint8_t>(c));
  w.put_u32(kVersion);

  w.put_u64(s.config_fingerprint);

  w.put_f64(s.now);
  w.put_u64(s.next_event_seq);
  w.put_u64(s.events_processed);
  w.put_u64(s.q_pushes);
  w.put_u64(s.q_pops);
  w.put_u64(s.q_cancels);
  w.put_u64(s.q_peak);
  w.put_u64(0);  // retired per-LP clock count; see decode()

  w.put_i32(s.step);
  w.put_f64(s.t_start);
  w.put_bool(s.force_update);
  w.put_f64_vec(s.positions);
  w.put_f64_vec(s.velocities);
  w.put_f64_vec(s.update_coords);

  w.put_f64(s.min_step_size);
  w.put_bool(s.min_has_prev);
  w.put_f64(s.min_prev_energy);
  w.put_f64_vec(s.min_prev_pos);
  w.put_f64_vec(s.min_prev_grad);
  w.put_u64(s.min_accepted);
  w.put_u64(s.min_rejected);

  put_physics(w, s.physics);
  put_metrics(w, s.metrics);

  w.put_u64(s.failover_epoch);
  w.put_u64(s.assignment.size());
  for (const auto& a : s.assignment) put_u32_vec(w, a);

  w.put_u64(s.servers.size());
  for (const ServerSnap& sv : s.servers) {
    put_u32_vec(w, sv.domain);
    put_u32_vec(w, sv.active);
    w.put_bool(sv.materialized);
    w.put_u64(sv.pairs_checked);
    w.put_u64(sv.pairs_evaluated);
    w.put_u64(sv.adopt_epoch);
  }

  w.put_u64(s.next_send_seq);
  w.put_u64(s.mailboxes.size());
  for (const auto& mb : s.mailboxes) {
    w.put_u64(mb.size());
    for (const MailboxItemSnap& m : mb) {
      w.put_i32(m.src);
      w.put_i32(m.tag);
      w.put_u64(m.seq);
      w.put_u64(m.checksum);
      w.put_bool(m.corrupted);
      w.put_bytes(m.raw);
      w.put_u64(m.payload_bytes);
    }
  }

  w.put_u64(s.alive.size());
  for (const bool a : s.alive) w.put_bool(a);
  put_rng(w, s.jitter_rng);
  w.put_u64(s.rpc_retries);
  w.put_u64(s.rpc_timeouts);
  w.put_u64(s.rpc_heartbeats);
  w.put_u64(s.rpc_stale_discarded);
  w.put_u64(s.rpc_servers_failed);
  w.put_f64(s.rpc_recovery_time_s);
  w.put_u64(s.next_call_id);
  w.put_u64(s.next_probe_id);

  w.put_u64(s.node_faults.size());
  for (const NodeFaultSnap& nf : s.node_faults) {
    w.put_i32(nf.node);
    w.put_f64(nf.t_fail);
  }
  w.put_bool(s.fault_enabled);
  w.put_u64(s.f_seen);
  w.put_u64(s.f_dropped);
  w.put_u64(s.f_duplicated);
  w.put_u64(s.f_corrupted);
  w.put_u64(s.f_stalls);
  put_rng(w, s.message_rng);
  put_rng(w, s.corrupt_rng);
  put_rng(w, s.stall_rng);

  w.put_u64(s.cpus.size());
  for (const CpuSnap& c : s.cpus) {
    w.put_u64(c.add);
    w.put_u64(c.mul);
    w.put_u64(c.div);
    w.put_u64(c.sqrt);
    w.put_u64(c.exp);
    w.put_u64(c.cmp);
    w.put_f64(c.busy_seconds);
    w.put_f64(c.cycles);
  }
  w.put_u64(s.net_messages);
  w.put_u64(s.net_bytes);

  w.put_u64(s.sink_next_seq);

  w.put_u64(s.images_written);
  w.put_u64(s.bytes_written);
  w.put_u64(s.deferred);

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
    util::BinReader r({image.data(), body});
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) (void)r.get_u8();
    const std::uint32_t version = r.get_u32();
    if (version != kVersion) {
      return bad("version " + std::to_string(version) + ", expected " +
                 std::to_string(kVersion));
    }

    RunSnapshot s;
    s.config_fingerprint = r.get_u64();

    s.now = r.get_f64();
    s.next_event_seq = r.get_u64();
    s.events_processed = r.get_u64();
    s.q_pushes = r.get_u64();
    s.q_pops = r.get_u64();
    s.q_cancels = r.get_u64();
    s.q_peak = r.get_u64();
    // Version-2 images carry a per-LP clock count here.  Only the retired
    // parallel engines ever wrote a non-zero one, and this engine has no
    // LPs to restore them into.
    const std::uint64_t n_lp_clocks = r.get_u64();
    if (n_lp_clocks != 0) {
      return bad(std::to_string(n_lp_clocks) +
                 " per-LP clocks; only single-LP images resume");
    }

    s.step = r.get_i32();
    s.t_start = r.get_f64();
    s.force_update = r.get_bool();
    s.positions = r.get_f64_vec();
    s.velocities = r.get_f64_vec();
    s.update_coords = r.get_f64_vec();

    s.min_step_size = r.get_f64();
    s.min_has_prev = r.get_bool();
    s.min_prev_energy = r.get_f64();
    s.min_prev_pos = r.get_f64_vec();
    s.min_prev_grad = r.get_f64_vec();
    s.min_accepted = r.get_u64();
    s.min_rejected = r.get_u64();

    s.physics = get_physics(r);
    s.metrics = get_metrics(r);

    s.failover_epoch = r.get_u64();
    const std::uint64_t na = r.get_u64();
    s.assignment.reserve(na);
    for (std::uint64_t i = 0; i < na; ++i) {
      s.assignment.push_back(get_u32_vec(r));
    }

    const std::uint64_t ns = r.get_u64();
    s.servers.reserve(ns);
    for (std::uint64_t i = 0; i < ns; ++i) {
      ServerSnap sv;
      sv.domain = get_u32_vec(r);
      sv.active = get_u32_vec(r);
      sv.materialized = r.get_bool();
      sv.pairs_checked = r.get_u64();
      sv.pairs_evaluated = r.get_u64();
      sv.adopt_epoch = r.get_u64();
      s.servers.push_back(std::move(sv));
    }

    s.next_send_seq = r.get_u64();
    const std::uint64_t nmb = r.get_u64();
    s.mailboxes.resize(nmb);
    for (auto& mb : s.mailboxes) {
      const std::uint64_t ni = r.get_u64();
      mb.reserve(ni);
      for (std::uint64_t i = 0; i < ni; ++i) {
        MailboxItemSnap m;
        m.src = r.get_i32();
        m.tag = r.get_i32();
        m.seq = r.get_u64();
        m.checksum = r.get_u64();
        m.corrupted = r.get_bool();
        m.raw = r.get_bytes();
        m.payload_bytes = r.get_u64();
        mb.push_back(std::move(m));
      }
    }

    const std::uint64_t nal = r.get_u64();
    s.alive.resize(nal);
    for (std::uint64_t i = 0; i < nal; ++i) s.alive[i] = r.get_bool();
    s.jitter_rng = get_rng(r);
    s.rpc_retries = r.get_u64();
    s.rpc_timeouts = r.get_u64();
    s.rpc_heartbeats = r.get_u64();
    s.rpc_stale_discarded = r.get_u64();
    s.rpc_servers_failed = r.get_u64();
    s.rpc_recovery_time_s = r.get_f64();
    s.next_call_id = r.get_u64();
    s.next_probe_id = r.get_u64();

    const std::uint64_t nnf = r.get_u64();
    s.node_faults.reserve(nnf);
    for (std::uint64_t i = 0; i < nnf; ++i) {
      NodeFaultSnap nf;
      nf.node = r.get_i32();
      nf.t_fail = r.get_f64();
      s.node_faults.push_back(nf);
    }
    s.fault_enabled = r.get_bool();
    s.f_seen = r.get_u64();
    s.f_dropped = r.get_u64();
    s.f_duplicated = r.get_u64();
    s.f_corrupted = r.get_u64();
    s.f_stalls = r.get_u64();
    s.message_rng = get_rng(r);
    s.corrupt_rng = get_rng(r);
    s.stall_rng = get_rng(r);

    const std::uint64_t nc = r.get_u64();
    s.cpus.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) {
      CpuSnap c;
      c.add = r.get_u64();
      c.mul = r.get_u64();
      c.div = r.get_u64();
      c.sqrt = r.get_u64();
      c.exp = r.get_u64();
      c.cmp = r.get_u64();
      c.busy_seconds = r.get_f64();
      c.cycles = r.get_f64();
      s.cpus.push_back(c);
    }
    s.net_messages = r.get_u64();
    s.net_bytes = r.get_u64();

    s.sink_next_seq = r.get_u64();

    s.images_written = r.get_u64();
    s.bytes_written = r.get_u64();
    s.deferred = r.get_u64();

    if (!r.done()) return bad("trailing bytes after payload");
    return s;
  } catch (const util::DecodeError& e) {
    return bad(e.what());
  }
}

}  // namespace opalsim::ckpt
