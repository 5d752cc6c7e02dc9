#include "sciddle/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "util/fatal.hpp"

namespace opalsim::sciddle {

namespace {
constexpr const char* kBarrierName = "sciddle-rpc-barrier";
}

void RetryPolicy::validate() const {
  // ConfigError derives std::invalid_argument, so callers catching the old
  // type keep working; the structured rendering adds the subsystem tag the
  // crash harness greps for.
  if (!enabled) return;
  if (timeout_s <= 0.0)
    throw util::ConfigError("sciddle", "RetryPolicy: timeout_s must be > 0");
  if (backoff < 1.0)
    throw util::ConfigError("sciddle", "RetryPolicy: backoff must be >= 1");
  if (max_timeout_s < timeout_s)
    throw util::ConfigError("sciddle", "RetryPolicy: max_timeout_s < timeout_s");
  if (max_attempts < 1)
    throw util::ConfigError("sciddle", "RetryPolicy: max_attempts must be >= 1");
  if (jitter_frac < 0.0 || jitter_frac >= 1.0)
    throw util::ConfigError("sciddle", "RetryPolicy: jitter_frac out of [0, 1)");
  if (heartbeat_timeout_s <= 0.0)
    throw util::ConfigError("sciddle",
                            "RetryPolicy: heartbeat_timeout_s must be > 0");
}

Rpc::Rpc(pvm::PvmSystem& pvm, int num_servers, Options opts)
    : pvm_(&pvm),
      num_servers_(num_servers),
      options_(opts),
      alive_(static_cast<std::size_t>(num_servers > 0 ? num_servers : 0),
             true),
      jitter_rng_(opts.retry.jitter_seed) {
  if (num_servers <= 0)
    throw std::invalid_argument("Rpc: need at least one server");
  if (pvm.machine().num_nodes() < num_servers + 1)
    throw std::invalid_argument("Rpc: machine too small for servers+client");
  options_.retry.validate();
}

void Rpc::restore(const Snapshot& s) {
  const auto dead = static_cast<std::uint64_t>(
      std::count(s.alive.begin(), s.alive.end(), false));
  if (s.alive.size() != alive_.size() || dead == alive_.size() ||
      s.totals.servers_failed != dead) {
    util::fatal("ckpt", "restore: the failure detector's state does not "
                        "fit " + std::to_string(alive_.size()) + " servers");
  }
  alive_ = s.alive;
  jitter_rng_.set_state(s.jitter_rng);
  totals_ = s.totals;
  next_call_id_ = s.next_call_id;
  next_probe_id_ = s.next_probe_id;
}

void Rpc::register_proc(std::string name, Handler handler) {
  if (started_)
    throw std::logic_error("Rpc: register_proc after start()");
  procs_[std::move(name)] = std::move(handler);
}

void Rpc::start() {
  if (started_) throw std::logic_error("Rpc: start() called twice");
  started_ = true;
  server_tids_.reserve(num_servers_);
  const bool ft = options_.retry.enabled;
  for (int s = 0; s < num_servers_; ++s) {
    // Server s runs on node s+1 (node 0 is the client's).
    const int tid = pvm_->spawn(
        s + 1, [this, s, ft](pvm::PvmTask& task) -> sim::Task<void> {
          return ft ? server_loop_ft(task, s) : server_loop(task, s);
        });
    server_tids_.push_back(tid);
  }
}

void Rpc::record(int task, const char* phase, double t0, double t1,
                 std::uint64_t round, int participants) {
  if (!obs::enabled()) return;
  // The client runs on node 0, server s on node s + 1.
  const int node = task < 0 ? 0 : task + 1;
  obs::Arg a0, a1;
  if (round > 0) a0 = {"round", static_cast<double>(round)};
  if (participants > 0) {
    a1 = {"participants", static_cast<double>(participants)};
  }
  obs::span(obs::Cat::kRpc, phase, t0, t1, node, a0, a1);
}

// ---------------------------------------------------------------------------
// Legacy (fault-free) protocol — byte-for-byte the seed middleware.
// ---------------------------------------------------------------------------

sim::Task<void> Rpc::server_loop(pvm::PvmTask& task, int server_index) {
  ServerContext ctx{task, server_index};
  for (;;) {
    pvm::Message m = co_await task.recv(pvm::kAny, pvm::kAny);
    if (m.tag == kTagStop) break;
    if (m.tag != kTagCall) {
      util::fatal("sciddle",
                  "server " + std::to_string(server_index) +
                      ": unexpected message tag " + std::to_string(m.tag),
                  task.engine().now());
    }

    const std::uint64_t call_id = m.body.unpack_u64();
    const std::string proc = m.body.unpack_string();
    auto it = procs_.find(proc);
    if (it == procs_.end()) {
      util::fatal("sciddle", "server: unknown procedure " + proc,
                  task.engine().now());
    }

    const double t0 = task.engine().now();
    pvm::PackBuffer payload = co_await it->second(std::move(m.body), ctx);
    const double busy = task.engine().now() - t0;
    record(server_index, "compute", t0, t0 + busy, call_id);

    if (options_.barrier_mode) {
      // §3.3: separate computation from the reply phase.
      co_await task.barrier(kBarrierName, num_servers_ + 1);
    }

    pvm::PackBuffer reply;
    reply.pack_u64(call_id);
    reply.pack_f64(busy);
    reply.append(payload);
    co_await task.send(m.src, kTagReply, std::move(reply));
  }
}

sim::Task<CallAllStats> Rpc::call_all(pvm::PvmTask& client,
                                      const std::string& proc,
                                      std::vector<pvm::PackBuffer> args,
                                      std::vector<pvm::PackBuffer>* replies) {
  if (!started_) throw std::logic_error("Rpc: call_all before start()");
  if (static_cast<int>(args.size()) != num_servers_)
    throw std::invalid_argument("Rpc: args size != num_servers");
  if (options_.retry.enabled)
    co_return co_await call_all_ft(client, proc, std::move(args), replies);

  auto& engine = client.engine();
  const double b5 = pvm_->machine().spec().sync_time_s;
  CallAllStats stats;
  stats.server_busy.assign(num_servers_, 0.0);
  const std::uint64_t call_id = next_call_id_++;

  // Start synchronization: arming the servers costs one constant b5
  // (the model's t_str component).
  co_await engine.delay(b5);
  stats.sync_time += b5;
  record(-1, "sync", engine.now() - b5, engine.now(), call_id);

  // Send the call to every server; the client's link serializes these, so
  // call_time grows linearly in p as the model assumes.  The envelope
  // prefix (call id + procedure name) is identical for all servers — pack
  // it once and stamp per-server copies instead of re-encoding p times.
  pvm::PackBuffer prefix;
  prefix.pack_u64(call_id);
  prefix.pack_string(proc);
  const double t_call0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    pvm::PackBuffer envelope = prefix;
    envelope.append(args[s]);
    co_await client.send(server_tids_[s], kTagCall, std::move(envelope));
  }
  stats.call_time = engine.now() - t_call0;
  record(-1, "call", t_call0, engine.now(), call_id);

  if (options_.barrier_mode) {
    // Wait for all handlers to finish: the barrier trips b5 after the last
    // server arrives.  The wait splits into compute_wall (servers busy) and
    // the embedded b5 (end synchronization, t_end).
    const double t_wait0 = engine.now();
    co_await client.barrier(kBarrierName, num_servers_ + 1);
    const double wait = engine.now() - t_wait0;
    stats.compute_wall = wait > b5 ? wait - b5 : 0.0;
    stats.sync_time += b5;
    // Partition of the wait: the compute window, then the embedded end
    // synchronization (t_end).  Lets the trace summarizer rebuild
    // compute_wall/sync exactly without knowing b5.
    record(-1, "compute", t_wait0, t_wait0 + stats.compute_wall, call_id,
           num_servers_);
    record(-1, "sync", t_wait0 + stats.compute_wall, engine.now(), call_id);
  }

  // Collect the p replies (serialized at the client's receive side).
  const double t_ret0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    pvm::Message m = co_await client.recv(server_tids_[s], kTagReply);
    const std::uint64_t got_id = m.body.unpack_u64();
    if (got_id != call_id) {
      util::fatal("sciddle",
                  "reply call-id mismatch: got " + std::to_string(got_id) +
                      ", expected " + std::to_string(call_id),
                  engine.now());
    }
    stats.server_busy[s] = m.body.unpack_f64();
    if (replies != nullptr) replies->push_back(std::move(m.body));
  }
  const double t_ret = engine.now() - t_ret0;
  record(-1, "return", t_ret0, engine.now(), call_id);

  if (options_.barrier_mode) {
    stats.return_time = t_ret;
  } else {
    // Overlap mode: compute and reply transfer interleave; everything after
    // the calls is one indivisible wait (the paper's point: accounting is
    // impossible without the barriers).
    stats.compute_wall = t_ret;
    stats.return_time = 0.0;
  }
  co_return stats;
}

// ---------------------------------------------------------------------------
// Fault-tolerant protocol.
//
// Round shape (one call_all):
//   client: b5 | call*p | { done-wait }*p | release*p | { reply-wait }*p
//   server: recv call -> handler -> done ; recv release -> reply
// The explicit done/release exchange reproduces the barrier-mode phase
// separation (compute vs return) without a p+1-party barrier, which would
// deadlock on the first lost message or dead server.  Every client wait is
// bounded by a timeout; expiry retransmits the request (servers dedup and
// replay by call id), and exhausted attempts escalate to a heartbeat probe
// that declares the server dead.  All lost time lands in the "recovery"
// phase bucket.
// ---------------------------------------------------------------------------

sim::Task<void> Rpc::server_loop_ft(pvm::PvmTask& task, int server_index) {
  ServerContext ctx{task, server_index};
  sim::FaultModel& fault = pvm_->machine().fault();
  const int node = task.node();
  std::uint64_t last_call_id = 0;
  double last_busy = 0.0;
  pvm::PackBuffer last_payload;  // cached handler payload for replay
  bool have_reply = false;

  for (;;) {
    pvm::Message m = co_await task.recv(pvm::kAny, pvm::kAny);
    // A crashed node neither serves nor replies (its parked process simply
    // never produces events again; delivery to it is already suppressed).
    if (fault.node_dead(node, task.engine().now())) co_return;
    if (m.tag == kTagStop) break;
    if (m.corrupted) continue;  // client's timeout machinery heals this

    if (m.tag == kTagPing) {
      pvm::PackBuffer pong;
      std::uint64_t nonce = 0;
      try {
        nonce = m.body.unpack_u64();
      } catch (const pvm::UnpackError&) {
        continue;
      }
      pong.pack_u64(nonce);
      co_await task.send(m.src, kTagPong, std::move(pong));
      continue;
    }

    if (m.tag == kTagRelease) {
      std::uint64_t rel_id = 0;
      try {
        rel_id = m.body.unpack_u64();
      } catch (const pvm::UnpackError&) {
        continue;
      }
      // Replay-safe: a duplicated or retransmitted release just resends the
      // cached reply; a stale release (older round) is ignored.
      if (rel_id == last_call_id && have_reply) {
        pvm::PackBuffer reply;
        reply.pack_u64(last_call_id);
        reply.pack_f64(last_busy);
        reply.append(last_payload);
        co_await task.send(m.src, kTagReply, std::move(reply));
      }
      continue;
    }

    if (m.tag != kTagCall) continue;  // unknown tag: drop, stay alive

    std::uint64_t call_id = 0;
    std::string proc;
    try {
      call_id = m.body.unpack_u64();
      if (call_id < last_call_id) continue;  // stale duplicate of old round
      if (call_id == last_call_id) {
        // Retransmitted call for the round we already computed: replay the
        // completion notification without re-running the handler
        // (idempotent dedup by sequence number).
        pvm::PackBuffer done;
        done.pack_u64(call_id);
        done.pack_f64(last_busy);
        co_await task.send(m.src, kTagDone, std::move(done));
        continue;
      }
      proc = m.body.unpack_string();
    } catch (const pvm::UnpackError&) {
      continue;  // corruption hit a tag/length byte: drop, client retries
    }

    auto it = procs_.find(proc);
    if (it == procs_.end()) {
      util::fatal("sciddle", "server: unknown procedure " + proc,
                  task.engine().now());
    }

    const double t0 = task.engine().now();
    pvm::PackBuffer payload = co_await it->second(std::move(m.body), ctx);
    const double busy = task.engine().now() - t0;
    record(server_index, "compute", t0, t0 + busy, call_id);
    last_call_id = call_id;
    last_busy = busy;
    last_payload = std::move(payload);
    have_reply = true;
    if (fault.node_dead(node, task.engine().now())) co_return;
    pvm::PackBuffer done;
    done.pack_u64(call_id);
    done.pack_f64(busy);
    co_await task.send(m.src, kTagDone, std::move(done));
  }
}

double Rpc::jittered(double timeout) {
  const double f =
      1.0 + options_.retry.jitter_frac * (2.0 * jitter_rng_.uniform() - 1.0);
  const double t = timeout * f;
  return t < options_.retry.max_timeout_s ? t : options_.retry.max_timeout_s;
}

sim::Task<bool> Rpc::probe(pvm::PvmTask& client, int server_index,
                           CallAllStats& stats) {
  auto& engine = client.engine();
  const int tid = server_tids_[server_index];
  // A single lost ping must not condemn a live server: probe a few times.
  constexpr int kProbeAttempts = 3;
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    ++stats.heartbeats;
    ++totals_.heartbeats;
    const std::uint64_t nonce = next_probe_id_++;
    if (obs::enabled()) {
      obs::instant(obs::Cat::kRpc, "heartbeat", engine.now(), 0,
                   {"server", static_cast<double>(server_index)},
                   {"attempt", static_cast<double>(attempt + 1)});
    }
    pvm::PackBuffer ping;
    ping.pack_u64(nonce);
    co_await client.send(tid, kTagPing, std::move(ping));
    const double deadline = engine.now() + options_.retry.heartbeat_timeout_s;
    while (engine.now() < deadline) {
      auto m = co_await client.recv_timeout(tid, kTagPong,
                                            deadline - engine.now());
      if (!m) break;  // probe window expired
      if (m->corrupted) {
        ++stats.stale_discarded;
        continue;
      }
      std::uint64_t got = 0;
      try {
        got = m->body.unpack_u64();
      } catch (const pvm::UnpackError&) {
        ++stats.stale_discarded;
        continue;
      }
      if (got == nonce) co_return true;
      ++stats.stale_discarded;  // pong of an older probe
    }
  }
  co_return false;
}

sim::Task<std::optional<pvm::Message>> Rpc::await_server(
    pvm::PvmTask& client, int server_index, int tag, std::uint64_t call_id,
    std::function<pvm::PackBuffer()> make_request, int request_tag,
    CallAllStats& stats, double* good_wait) {
  auto& engine = client.engine();
  const int tid = server_tids_[server_index];
  double timeout = options_.retry.timeout_s;
  int attempts = 1;  // the caller already sent the first request
  int graces = 0;
  constexpr int kMaxGraces = 4;

  for (;;) {
    const double deadline = engine.now() + timeout;
    while (engine.now() < deadline) {
      const double t0 = engine.now();
      auto m = co_await client.recv_timeout(tid, tag, deadline - engine.now());
      if (!m) {
        // Wait expired empty-handed.
        stats.recovery_time += engine.now() - t0;
        record(-1, "recovery", t0, engine.now(), call_id);
        break;
      }
      bool good = !m->corrupted;
      std::uint64_t got_id = 0;
      if (good) {
        try {
          got_id = m->body.unpack_u64();
        } catch (const pvm::UnpackError&) {
          good = false;
        }
      }
      if (good && got_id == call_id) {
        *good_wait += engine.now() - t0;
        co_return m;
      }
      // Corrupt or stale (old round / duplicate): discard and keep waiting
      // out the same deadline.
      ++stats.stale_discarded;
      ++totals_.stale_discarded;
      stats.recovery_time += engine.now() - t0;
      record(-1, "recovery", t0, engine.now(), call_id);
    }
    ++stats.timeouts;
    ++totals_.timeouts;

    if (attempts >= options_.retry.max_attempts) {
      // Slow or dead?  Ask the failure detector.
      const double t_probe0 = engine.now();
      const bool is_alive = co_await probe(client, server_index, stats);
      stats.recovery_time += engine.now() - t_probe0;
      record(-1, "recovery", t_probe0, engine.now(), call_id);
      if (!is_alive || graces >= kMaxGraces) {
        alive_[server_index] = false;
        stats.failed_servers.push_back(server_index);
        ++totals_.servers_failed;
        co_return std::nullopt;
      }
      // The server answered: it is alive but slow (or our requests keep
      // getting lost).  Grant a grace period and keep retrying.
      ++graces;
      attempts = 0;
    }

    // Retransmit the request (the server stub dedups by call id) and back
    // off the timeout, with deterministic jitter to avoid lockstep retries.
    const double t_send0 = engine.now();
    if (obs::enabled()) {
      obs::instant(obs::Cat::kRpc, "retry", t_send0, 0,
                   {"server", static_cast<double>(server_index)},
                   {"attempt", static_cast<double>(attempts)});
    }
    co_await client.send(tid, request_tag, make_request());
    stats.recovery_time += engine.now() - t_send0;
    record(-1, "recovery", t_send0, engine.now(), call_id);
    ++attempts;
    ++stats.retries;
    ++totals_.retries;
    timeout = jittered(timeout * options_.retry.backoff);
  }
}

sim::Task<CallAllStats> Rpc::call_all_ft(pvm::PvmTask& client,
                                         const std::string& proc,
                                         std::vector<pvm::PackBuffer> args,
                                         std::vector<pvm::PackBuffer>* replies) {
  auto& engine = client.engine();
  const double b5 = pvm_->machine().spec().sync_time_s;
  CallAllStats stats;
  stats.server_busy.assign(num_servers_, 0.0);
  stats.participants = num_alive();
  if (stats.participants == 0) {
    util::fatal("sciddle", "no live servers left", engine.now());
  }
  const std::uint64_t call_id = next_call_id_++;

  // Start synchronization (t_str), as in barrier mode.
  co_await engine.delay(b5);
  stats.sync_time += b5;
  record(-1, "sync", engine.now() - b5, engine.now(), call_id);

  // Both envelope kinds are built from prefixes packed exactly once per
  // round: call envelopes stamp per-server args onto a shared (call id,
  // proc) prefix; release envelopes are identical for every server and
  // every retransmission, so copies just share the packed bytes.
  pvm::PackBuffer call_prefix;
  call_prefix.pack_u64(call_id);
  call_prefix.pack_string(proc);
  pvm::PackBuffer release_env;
  release_env.pack_u64(call_id);
  auto call_envelope = [&args, &call_prefix](int s) {
    pvm::PackBuffer env = call_prefix;
    env.append(args[s]);
    return env;
  };
  auto release_envelope = [&release_env]() { return release_env; };

  // Call phase: first-attempt sends to every live server.
  const double t_call0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;
    co_await client.send(server_tids_[s], kTagCall, call_envelope(s));
  }
  stats.call_time = engine.now() - t_call0;
  record(-1, "call", t_call0, engine.now(), call_id);

  // Compute phase: one completion notification per live server.
  const double t_comp0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;
    auto m = co_await await_server(client, s, kTagDone, call_id,
                                   [&call_envelope, s] { return call_envelope(s); },
                                   kTagCall, stats, &stats.compute_wall);
    if (!m) continue;  // declared dead; round will be re-issued
    stats.server_busy[s] = m->body.unpack_f64();
  }
  if (stats.failed_servers.empty()) {
    // The compute window is compute_wall plus interleaved recovery; the
    // summarizer subtracts the overlapping recovery spans to recover
    // compute_wall exactly.
    record(-1, "compute", t_comp0, engine.now(), call_id, stats.participants);
  }
  if (!stats.failed_servers.empty()) {
    // Incomplete round: skip release/reply — the caller redistributes the
    // dead servers' work and re-issues the round under a fresh call id
    // (survivors abandon this round the moment the new call arrives).
    totals_.recovery_time_s += stats.recovery_time;
    co_return stats;
  }

  // End synchronization: the release fan-out separates compute from reply,
  // playing the role barrier mode's closing b5 plays.
  const double t_rel0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;
    co_await client.send(server_tids_[s], kTagRelease, release_envelope());
  }
  stats.sync_time += engine.now() - t_rel0;
  record(-1, "sync", t_rel0, engine.now(), call_id);

  // Return phase: collect the replies.
  const double t_reply0 = engine.now();
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;
    auto m = co_await await_server(client, s, kTagReply, call_id,
                                   release_envelope, kTagRelease, stats,
                                   &stats.return_time);
    if (!m) continue;  // declared dead; round will be re-issued
    stats.server_busy[s] = m->body.unpack_f64();
    if (replies != nullptr) replies->push_back(std::move(m->body));
  }
  if (stats.failed_servers.empty()) {
    // The true collection window (recovery interleaving subtracted by the
    // summarizer).
    record(-1, "return", t_reply0, engine.now(), call_id);
  }
  totals_.recovery_time_s += stats.recovery_time;
  co_return stats;
}

sim::Task<void> Rpc::shutdown(pvm::PvmTask& client) {
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;  // a dead server's loop is parked forever
    co_await client.send(server_tids_[s], kTagStop, pvm::PackBuffer{});
  }
  for (int s = 0; s < num_servers_; ++s) {
    if (!alive_[s]) continue;
    co_await pvm_->process(server_tids_[s]).join();
  }
}

}  // namespace opalsim::sciddle
