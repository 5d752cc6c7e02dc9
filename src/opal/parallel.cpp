#include "opal/parallel.hpp"

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opal/decomp.hpp"
#include "opal/forcefield.hpp"
#include "opal/soa.hpp"
#include "opal/pairs.hpp"
#include "opal/serial.hpp"
#include "pvm/pvm_system.hpp"
#include "sim/engine.hpp"
#include "util/binio.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/fatal.hpp"

namespace opalsim::opal {

namespace {

/// Calls f(k, i) for the k-th center whose coordinates a server's requests
/// carry and whose gradient its reply returns, center i, and returns how
/// many there are: every center under RD, `local[k]` under SD and FD.
template <class F>
std::size_t for_each_center(Method method, std::size_t n,
                            const std::vector<std::uint32_t>& local, F&& f) {
  if (method == Method::ReplicatedData) {
    for (std::size_t i = 0; i < n; ++i) f(i, i);
    return n;
  }
  for (std::size_t k = 0; k < local.size(); ++k) f(k, local[k]);
  return local.size();
}

/// Per-server state; under RD the global data every server holds (paper
/// §2.6 — interaction parameters and coordinates are replicated; only the
/// pair lists scale down with p).
struct ServerState {
  MolecularComplex replica;
  ServerDomain domain;
  std::vector<Vec3> grad;
  /// SoA mirror of the replica for the nonbonded host kernel; parameters
  /// are refreshed once, positions after every coordinate message.
  CentersSoA soa;
  /// SD and FD: the centers of the last update's assignment, own first.
  std::vector<std::uint32_t> local;
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_evaluated = 0;
  /// Highest failover epoch applied — makes the "adopt" handler idempotent
  /// under any re-issue policy (a redone handoff round must not graft the
  /// same pairs twice).
  std::uint64_t adopt_epoch = 0;

  /// SD and FD also hold the candidate pairs their update enumerated.
  std::size_t working_set_bytes(Method method) const {
    const bool rd = method == Method::ReplicatedData;
    const std::size_t shipped = rd ? 0 : domain.domain_size();
    return (rd ? replica.n() : local.size()) *
               (sizeof(MassCenter) + sizeof(Vec3)) +
           domain.list_bytes() + shipped * sizeof(PairIdx);
  }

  /// Writes the coordinates a request carries into the replica.
  void receive(Method method, const std::vector<double>& flat) {
    for_each_center(method, replica.n(), local,
                    [&](std::size_t k, std::size_t i) {
                      replica.centers[i].position =
                          Vec3{flat[3 * k], flat[3 * k + 1], flat[3 * k + 2]};
                    });
  }

  ParallelOpal::ServerSnapshot snapshot() const {
    return {domain.snapshot(), pairs_checked, pairs_evaluated, adopt_epoch};
  }
  void restore(const ParallelOpal::ServerSnapshot& s, std::uint32_t n) {
    domain.restore(s.lists, n);
    pairs_checked = s.pairs_checked;
    pairs_evaluated = s.pairs_evaluated;
    adopt_epoch = s.adopt_epoch;
  }
};

/// Restores every server from its record.  Throws util::FatalError("ckpt")
/// unless there is one per server and no pair is held by two servers the
/// restored `rpc` believes alive (a dead server keeps its pre-failover
/// domain: failover moves only the client's copy).
void restore_servers(std::vector<ServerState>& servers,
                     const std::vector<ParallelOpal::ServerSnapshot>& snaps,
                     const sciddle::Rpc& rpc, std::uint32_t n) {
  if (snaps.size() != servers.size()) {
    util::fatal("ckpt", "resume: the image holds " +
                            std::to_string(snaps.size()) + " server records");
  }
  // One bit per pair, at its lexicographic index in the triangle.
  const std::uint64_t nn = n;
  std::vector<std::uint64_t> held((nn * (nn - 1) / 2 + 63) / 64);
  for (std::size_t s = 0; s < servers.size(); ++s) {
    servers[s].restore(snaps[s], n);
    if (!rpc.server_alive(static_cast<int>(s))) continue;
    for (const PairIdx& pr : servers[s].domain.domain()) {
      const std::uint64_t k = pr.i * (2 * nn - pr.i - 1) / 2 + pr.j - pr.i - 1;
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      if (held[k / 64] & bit) {
        util::fatal("ckpt", "resume: a pair is held by two live servers");
      }
      held[k / 64] |= bit;
    }
  }
}

/// The client's own state: everything its step loop carries from one step
/// to the next, besides the positions, which live in the complex.
struct ClientState {
  ClientState(std::size_t n, double min_step)
      : velocities(n), minimizer(min_step) {}

  int step = 0;  ///< next step to execute
  double t_start = 0.0;
  bool force_update = false;
  std::vector<Vec3> velocities;
  /// Coordinates of the last *scheduled* list rebuild.  A failover-forced
  /// update re-ships these instead of the current positions: the adopters
  /// then rebuild exactly the active set the dead server held, keeping the
  /// cut-off list schedule — and hence the physics — identical to the
  /// serial reference.
  std::vector<double> update_coords;
  SteepestDescent minimizer;
  ParallelRunResult result;
  std::uint64_t failover_epoch = 0;
  /// Client-side copy of the pair assignment, used only in fault-tolerant
  /// mode: the failover source of truth for redistributing a dead server's
  /// work among the survivors.  Until the first failover no server has
  /// adopted anything, so each server's domain still is its initial share:
  /// the copy is taken from the servers on the first heal (or restored from
  /// a checkpoint), and a failover-free run never holds it.
  std::vector<std::vector<PairIdx>> assignment;

  /// `servers` stand in for the assignment copy the client does not hold
  /// yet (fault-tolerant mode only).
  ParallelOpal::ClientSnapshot snapshot(
      const MolecularComplex& mc, const std::vector<ServerState>& servers,
      bool fault_tolerant) const {
    ParallelOpal::ClientSnapshot s{step, t_start, force_update,
                                   mc.flat_coordinates(), velocities,
                                   update_coords, minimizer.snapshot(),
                                   result.physics, result.metrics,
                                   failover_epoch, assignment};
    if (fault_tolerant && assignment.empty()) {
      for (const ServerState& st : servers) {
        s.assignment.push_back(st.domain.domain());
      }
    }
    return s;
  }

  /// Throws util::FatalError("ckpt"), changing nothing, unless the record
  /// fits a run of `steps` steps on `num_servers` servers.
  void restore(const ParallelOpal::ClientSnapshot& s, MolecularComplex& mc,
               int steps, std::size_t num_servers, bool fault_tolerant) {
    const std::size_t n = mc.n();
    const auto in_range = [&](const std::vector<PairIdx>& a) {
      return pairs_in_range(a, static_cast<std::uint32_t>(n));
    };
    if (s.step < 0 || s.step >= steps || s.positions.size() != 3 * n ||
        s.velocities.size() != n ||
        s.update_coords.size() != (s.step > 0 ? 3 * n : 0) ||
        s.assignment.size() != (fault_tolerant ? num_servers : 0) ||
        !std::all_of(s.assignment.begin(), s.assignment.end(), in_range)) {
      util::fatal("ckpt", "resume: the client record at step " +
                              std::to_string(s.step) + " does not fit the run");
    }
    minimizer.restore(s.minimizer, n);
    mc.set_flat_coordinates(s.positions);
    step = s.step;
    t_start = s.t_start;
    force_update = s.force_update;
    velocities = s.velocities;
    update_coords = s.update_coords;
    result.physics = s.physics;
    result.metrics = s.metrics;
    failover_epoch = s.failover_epoch;
    assignment = s.assignment;
  }
};

/// Identity of everything that (re)builds the run's static structure:
/// platform, fault schedule, complex, server count, step/update/physics
/// config, middleware policy.  A checkpoint taken under one fingerprint is
/// refused under any other — resuming into a different topology would
/// silently desynchronize the replay.  Host-only tuning knobs (pair_path,
/// trace/metrics/checkpoint paths) deliberately do not participate.
std::uint64_t run_fingerprint(const mach::PlatformSpec& platform,
                              const MolecularComplex& mc, int num_servers,
                              const SimulationConfig& cfg,
                              const sciddle::Options& mw) {
  util::BinWriter w;
  w.put_string(platform.name);
  w.put_f64(platform.sync_time_s);
  const sim::FaultSpec& f = platform.fault;
  w.put_u64(f.seed);
  w.put_f64(f.drop_rate);
  w.put_f64(f.duplicate_rate);
  w.put_f64(f.corrupt_rate);
  w.put_f64(f.daemon_stall_rate);
  w.put_f64(f.daemon_stall_s);
  w.put_u64(f.degradations.size());
  for (const sim::LinkDegradation& d : f.degradations) {
    w.put_f64(d.t_start);
    w.put_f64(d.t_end);
    w.put_f64(d.bandwidth_factor);
    w.put_f64(d.latency_factor);
  }
  w.put_u64(f.node_faults.size());
  for (const sim::NodeFault& nf : f.node_faults) {
    w.put_i32(nf.node);
    w.put_f64(nf.t_fail);
  }
  w.put_u64(mc.n());
  w.put_f64_vec(mc.flat_coordinates());
  w.put_u32(static_cast<std::uint32_t>(num_servers));
  w.put_i32(cfg.steps);
  w.put_i32(cfg.update_every);
  w.put_f64(cfg.cutoff);
  w.put_u8(static_cast<std::uint8_t>(cfg.strategy));
  w.put_f64(cfg.dt);
  w.put_bool(cfg.integrate);
  w.put_u8(static_cast<std::uint8_t>(cfg.mode));
  w.put_f64(cfg.min_step);
  w.put_u64(cfg.seed);
  w.put_i32(cfg.kill_server);
  w.put_i32(cfg.kill_at_step);
  w.put_bool(mw.barrier_mode);
  const sciddle::RetryPolicy& r = mw.retry;
  w.put_bool(r.enabled);
  w.put_f64(r.timeout_s);
  w.put_f64(r.backoff);
  w.put_f64(r.max_timeout_s);
  w.put_i32(r.max_attempts);
  w.put_f64(r.jitter_frac);
  w.put_u64(r.jitter_seed);
  w.put_f64(r.heartbeat_timeout_s);
  const std::vector<std::uint8_t>& b = w.bytes();
  const std::uint32_t lo = util::crc32(b.data(), b.size());
  const std::uint32_t hi = util::crc32(b.data(), b.size(), 0x9e3779b9u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Parks the resuming client until the outer restore sequence has rebuilt
/// every layer's state; the handle is resumed directly (never scheduled, so
/// no engine event sequence number is consumed).
struct ResumeFence {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *slot = h; }
  void await_resume() const noexcept {}
};
static_assert(std::is_trivially_destructible_v<ResumeFence>,
              "awaiters must stay trivially destructible: GCC 12 can "
              "double-destroy awaiter temporaries on suspension paths");

}  // namespace

ParallelOpal::ParallelOpal(mach::PlatformSpec platform, MolecularComplex mc,
                           int num_servers, SimulationConfig cfg,
                           sciddle::Options middleware)
    : platform_(std::move(platform)),
      mc_(std::move(mc)),
      num_servers_(num_servers),
      cfg_(cfg),
      middleware_(middleware) {
  cfg_.validate();
  if (num_servers <= 0)
    throw util::ConfigError("opal", "ParallelOpal: need at least one server");
  if (cfg_.kill_server >= num_servers)
    throw util::ConfigError("opal", "ParallelOpal: kill_server out of range");
  if (cfg_.kill_server >= 0 && cfg_.kill_at_step >= 0 &&
      !middleware_.retry.enabled)
    throw util::ConfigError(
        "opal",
        "ParallelOpal: killing a server requires fault-tolerant middleware "
        "(Options::retry.enabled)");
}

ParallelRunResult ParallelOpal::run() {
  if (ran_) throw std::logic_error("ParallelOpal::run called twice");
  ran_ = true;

  // Tracing/metrics knobs: config fields win, environment fills the blanks.
  // The sink is installed thread-locally for the duration of the run, so
  // sweeps fanning runs over a thread pool each trace independently.
  std::string trace_path = cfg_.trace_out;
  if (trace_path.empty()) trace_path = obs::trace_path_from_env();
  std::string metrics_path = cfg_.metrics_out;
  if (metrics_path.empty()) metrics_path = obs::metrics_path_from_env();

  // Checkpoint/restart knobs (config wins, OPALSIM_CHECKPOINT fills the
  // output path).  "Active" covers both writing and resuming: metrics output
  // switches to the checkpoint-stable key set either way, so a resumed run
  // and its golden counterpart emit identical JSON.
  std::string ckpt_out = cfg_.checkpoint_out;
  if (ckpt_out.empty()) {
    ckpt_out = util::env_string("OPALSIM_CHECKPOINT").value_or("");
  }
  const bool resuming = !cfg_.resume_from.empty();
  const bool ckpt_active = !ckpt_out.empty() || resuming;
  const Method method = cfg_.method;
  const bool replicated = method == Method::ReplicatedData;
  if (!replicated && (ckpt_active || cfg_.checkpoint_every_steps > 0 ||
                      cfg_.checkpoint_at_step >= 0 || cfg_.kill_server >= 0 ||
                      cfg_.kill_at_step >= 0)) {
    throw util::ConfigError("opal", to_string(method) +
                                        ": server kills and checkpoints "
                                        "cover replicated data only");
  }
  const std::uint64_t fingerprint =
      ckpt_active
          ? run_fingerprint(platform_, mc_, num_servers_, cfg_, middleware_)
          : 0;
  std::optional<ckpt::RunSnapshot> resume_snap;
  if (resuming) {
    resume_snap.emplace(ckpt::load_snapshot(cfg_.resume_from));
    if (resume_snap->config_fingerprint != fingerprint) {
      util::fatal("ckpt", "checkpoint " + cfg_.resume_from +
                              " belongs to a different run configuration");
    }
  }

  std::optional<obs::MemorySink> trace_sink;
  std::optional<obs::ScopedSink> trace_scope;
  // On resume the sink is installed only after the task graph is rebuilt and
  // drained, continuing the recorded sequence — the reconstruction itself
  // must not trace.
  if (!trace_path.empty() && !resuming) {
    trace_sink.emplace();
    trace_scope.emplace(*trace_sink);
  }

  sim::Engine engine;
  mach::Machine machine(engine, platform_, num_servers_ + 1);
  pvm::PvmSystem pvm(machine);
  sciddle::Rpc rpc(pvm, num_servers_, middleware_);
  // Restore the clock before any spawn: every reconstruction event is then
  // scheduled at the checkpoint's virtual time.
  if (resume_snap) engine.restore_clock(resume_snap->engine.now);

  // SD and FD servers enumerate their pairs from each update request.
  const auto n = static_cast<std::uint32_t>(mc_.n());
  auto domains = replicated ? build_domains(n, num_servers_, cfg_.strategy,
                                            cfg_.seed)
                            : std::vector<std::vector<PairIdx>>(num_servers_);
  std::vector<ServerState> servers;
  servers.reserve(num_servers_);
  for (int s = 0; s < num_servers_; ++s) {
    ServerState st;
    st.replica = mc_;
    st.domain = ServerDomain(std::move(domains[s]));
    st.grad.resize(mc_.n());
    st.soa.refresh_params(st.replica);
    servers.push_back(std::move(st));
  }

  // --- server stubs ---------------------------------------------------
  rpc.register_proc(
      "update",
      [&servers, method, replicated, this](pvm::PackBuffer args,
                                          sciddle::ServerContext& ctx)
          -> sim::Task<pvm::PackBuffer> {
        ServerState& st = servers[ctx.server_index];
        if (!replicated) st.domain.reassign(unpack_candidates(args, st.local));
        st.receive(method, args.unpack_f64_array());
        const std::uint64_t checked =
            st.domain.update(st.replica, cfg_.cutoff, cfg_.pair_path);
        st.pairs_checked += checked;
        co_await ctx.task.cpu().compute(OpMixes::update_pair * checked,
                                        st.working_set_bytes(method));
        co_return pvm::PackBuffer{};  // eq. (8): no data in the reply
      });

  rpc.register_proc(
      "nbint",
      [&servers, method](pvm::PackBuffer args, sciddle::ServerContext& ctx)
          -> sim::Task<pvm::PackBuffer> {
        ServerState& st = servers[ctx.server_index];
        st.receive(method, args.unpack_f64_array());
        st.soa.refresh_positions(st.replica);
        const std::size_t centers = for_each_center(
            method, st.replica.n(), st.local,
            [&](std::size_t, std::size_t i) { st.grad[i] = Vec3{}; });
        double evdw = 0.0, ecoul = 0.0;
        nonbonded_batch(st.soa, st.domain.active(), evdw, ecoul, st.grad);
        const std::uint64_t m = st.domain.active_size();
        st.pairs_evaluated += m;
        co_await ctx.task.cpu().compute(OpMixes::nbint_pair * m,
                                        st.working_set_bytes(method));
        pvm::PackBuffer out;  // eq. (9): energies + 3n gradient components
        out.pack_f64(evdw);
        out.pack_f64(ecoul);
        std::vector<double> flat(3 * centers);
        for_each_center(method, st.replica.n(), st.local,
                        [&](std::size_t k, std::size_t i) {
                          flat[3 * k] = st.grad[i].x;
                          flat[3 * k + 1] = st.grad[i].y;
                          flat[3 * k + 2] = st.grad[i].z;
                        });
        out.pack_f64_array(flat);
        co_return out;
      });

  rpc.register_proc(
      "adopt",
      [&servers](pvm::PackBuffer args, sciddle::ServerContext& ctx)
          -> sim::Task<pvm::PackBuffer> {
        ServerState& st = servers[ctx.server_index];
        const std::uint64_t epoch = args.unpack_u64();
        const std::vector<std::uint32_t> flat = args.unpack_u32_array();
        if (epoch > st.adopt_epoch) {
          st.adopt_epoch = epoch;
          std::vector<PairIdx> extra(flat.size() / 2);
          for (std::size_t k = 0; k < extra.size(); ++k) {
            extra[k] = PairIdx{flat[2 * k], flat[2 * k + 1]};
          }
          st.domain.adopt(extra);
        }
        co_return pvm::PackBuffer{};
      });

  rpc.start();

  // --- client ----------------------------------------------------------
  const bool fault_tolerant = middleware_.retry.enabled;
  ClientState client(mc_.n(), cfg_.min_step);
  RunMetrics& metrics = client.result.metrics;
  ckpt::Accounting ckpt_acct;  // serialized self-inclusively in each image
  std::coroutine_handle<> resume_fence;

  // Everything that defines the run's future at a quiescent step boundary:
  // each layer's record, the client's and the servers' included.
  const auto make_snapshot = [&] {
    std::vector<ServerSnapshot> server_snaps;
    server_snaps.reserve(servers.size());
    for (const ServerState& st : servers) server_snaps.push_back(st.snapshot());
    return ckpt::RunSnapshot{
        fingerprint, engine.snapshot(),
        client.snapshot(mc_, servers, fault_tolerant),
        std::move(server_snaps), pvm.snapshot(), rpc.snapshot(),
        machine.snapshot(), trace_sink ? trace_sink->next_seq() : 0,
        ckpt_acct};
  };

  pvm.spawn(0, [&](pvm::PvmTask& task) -> sim::Task<void> {
    std::vector<Vec3> grad(mc_.n());
    client.t_start = engine.now();

    // Failover: move every dead server's pairs to the survivors and ship
    // the delta over an "adopt" round.  Loops because a survivor can die
    // during the handoff itself, in which case its (already enlarged) share
    // is what the next pass redistributes.
    auto heal = [&](pvm::PvmTask& cl) -> sim::Task<void> {
      if (!replicated) {
        util::fatal("opal", to_string(method) + ": a server failed; failover "
                    "covers replicated data only", engine.now());
      }
      if (client.assignment.empty()) {
        client.assignment.reserve(servers.size());
        for (const ServerState& st : servers) {
          client.assignment.push_back(st.domain.domain());
        }
      }
      for (;;) {
        std::vector<int> dead, survivors;
        for (int s = 0; s < num_servers_; ++s) {
          if (rpc.server_alive(s)) {
            survivors.push_back(s);
          } else if (!client.assignment[s].empty()) {
            dead.push_back(s);
          }
        }
        if (dead.empty()) co_return;
        if (survivors.empty())
          util::fatal("opal", "ParallelOpal: all servers failed", engine.now());

        std::vector<std::vector<PairIdx>> extra(num_servers_);
        for (int d : dead) {
          std::vector<PairIdx>& pairs = client.assignment[d];
          for (std::size_t k = 0; k < pairs.size(); ++k) {
            extra[survivors[k % survivors.size()]].push_back(pairs[k]);
          }
          pairs.clear();
          ++metrics.failovers;
        }
        // Commit the client-side copy before shipping: if an adoptee dies
        // mid-handoff, its enlarged share is what must be redistributed.
        const std::uint64_t epoch = ++client.failover_epoch;
        std::vector<pvm::PackBuffer> args(num_servers_);
        for (int s = 0; s < num_servers_; ++s) {
          std::vector<std::uint32_t> flat;
          flat.reserve(extra[s].size() * 2);
          for (const PairIdx& pr : extra[s]) {
            flat.push_back(pr.i);
            flat.push_back(pr.j);
          }
          args[s].pack_u64(epoch);
          args[s].pack_u32_array(flat);
          client.assignment[s].insert(client.assignment[s].end(),
                                      extra[s].begin(), extra[s].end());
        }
        const sciddle::CallAllStats st =
            co_await rpc.call_all(cl, "adopt", std::move(args), nullptr);
        metrics.recovery += st.total();  // the whole handoff is recovery
      }
    };

    if (resume_snap) {
      // Park until the outer restore sequence has rebuilt every layer, this
      // client's state included, then fall into the step loop exactly where
      // the checkpointed run left it.
      co_await ResumeFence{&resume_fence};
    }
    const int start_step = client.step;

    bool want_ckpt = false;  ///< a due checkpoint was deferred (not quiescent)
    // SD and FD: each server's share since the last scheduled update.
    std::vector<Assignment> shares(num_servers_);
    for (int& step = client.step; step < cfg_.steps; ++step) {
      // Checkpoint hook: top of the step loop is the quiescent boundary.
      // A resumed run skips the boundary it was restored at — that image is
      // already on disk and its accounting is part of the snapshot.
      if (!ckpt_out.empty() && !(resume_snap && step == start_step)) {
        const bool due =
            want_ckpt ||
            (cfg_.checkpoint_every_steps > 0 && step > 0 &&
             step % cfg_.checkpoint_every_steps == 0) ||
            step == cfg_.checkpoint_at_step;
        if (due) {
          if (engine.pending_events() > 0) {
            // Not quiescent (a stale duplicated transfer can still be in
            // flight in fault-tolerant mode): retry at the next boundary.
            want_ckpt = true;
            ++ckpt_acct.deferred;
            if (obs::enabled()) {
              obs::instant(obs::Cat::kCkpt, "defer", engine.now(), 0,
                           {"step", static_cast<double>(step)});
            }
          } else {
            want_ckpt = false;
            if (obs::enabled()) {
              obs::instant(obs::Cat::kCkpt, "checkpoint", engine.now(), 0,
                           {"step", static_cast<double>(step)});
            }
            ++ckpt_acct.images_written;
            ckpt::RunSnapshot snap = make_snapshot();
            // bytes_written counts this image too: its size is counted
            // first (fixed-width counters, so the size does not depend on
            // the value set next), then the image is encoded once.
            ckpt_acct.bytes_written += ckpt::encoded_size(snap);
            snap.accounting.bytes_written = ckpt_acct.bytes_written;
            ckpt::write_image_atomic(ckpt_out, ckpt::encode(snap));
          }
        }
      }
      if (obs::enabled()) {
        obs::instant(obs::Cat::kPhase, "step", engine.now(), 0,
                     {"step", static_cast<double>(step)});
      }
      if (step == cfg_.kill_at_step && cfg_.kill_server >= 0) {
        machine.fault().kill_node(cfg_.kill_server + 1, engine.now());
      }
      const std::vector<double> coords = mc_.flat_coordinates();
      const bool scheduled_update = step % cfg_.update_every == 0;
      if (scheduled_update) client.update_coords = coords;
      if (scheduled_update && !replicated) {
        shares = method == Method::SpaceDecomposition
                     ? sd_assign(mc_, num_servers_, cfg_.cutoff)
                     : fd_assign(n, num_servers_);
      }
      // RD ships every server the same coordinates, SD and FD each its own.
      auto round_args = [&](bool update) {
        std::vector<pvm::PackBuffer> args(num_servers_);
        for (int s = 0; s < num_servers_; ++s) {
          if (replicated) {
            args[s].pack_f64_array(update ? client.update_coords : coords);
          } else if (update) {
            pack_update(method, shares[s], mc_, args[s]);
          } else {
            args[s].pack_f64_array(coords_for(mc_, shares[s].local));
          }
        }
        return args;
      };

      // A step can take several passes in fault-tolerant mode: a round in
      // which a server died is void (its results are incomplete) and is
      // re-issued after failover.  Handlers recompute from the shipped
      // coordinates, so re-execution is idempotent.  With faults disabled
      // every round succeeds and the body runs exactly once, matching the
      // seed step loop.
      std::vector<pvm::PackBuffer> replies;
      bool update_done = false;  // this step's scheduled update succeeded
      for (bool step_done = false; !step_done;) {
        if (client.force_update || (scheduled_update && !update_done)) {
          const sciddle::CallAllStats st =
              co_await rpc.call_all(task, "update", round_args(true), nullptr);
          if (!st.failed_servers.empty()) {
            metrics.recovery += st.total();  // void round, redo after heal
            co_await heal(task);
            client.force_update = true;
            continue;
          }
          ++metrics.list_updates;
          if (scheduled_update && !update_done) {
            metrics.call_upd += st.call_time;
            metrics.return_upd += st.return_time;
            metrics.sync += st.sync_time;
            metrics.recovery += st.recovery_time;
            metrics.par_update += st.par_time();
            metrics.idle += st.idle_time();
            update_done = true;
          } else {
            // An off-schedule rebuild exists only to serve failover: its
            // whole cost is recovery, not the model's update phases.
            metrics.recovery += st.total();
          }
          client.force_update = false;
        }

        replies.clear();
        const sciddle::CallAllStats st =
            co_await rpc.call_all(task, "nbint", round_args(false), &replies);
        if (!st.failed_servers.empty()) {
          metrics.recovery += st.total();  // void round, redo after heal
          co_await heal(task);
          // Adopted pairs need fresh active lists before the re-issued
          // nbint sees them.
          client.force_update = true;
          continue;
        }
        metrics.call_nbi += st.call_time;
        metrics.return_nbi += st.return_time;
        metrics.sync += st.sync_time;
        metrics.recovery += st.recovery_time;
        metrics.par_nbint += st.par_time();
        metrics.idle += st.idle_time();
        step_done = true;
      }

      // Sequential part: reductions, bonded terms, integration (eq. 5).
      const double t_seq0 = engine.now();
      hpm::OpCounts seq_ops;
      double evdw = 0.0, ecoul = 0.0;
      std::fill(grad.begin(), grad.end(), Vec3{});
      // A failover leaves RD with fewer replies than servers; under SD and
      // FD a failure ends the run, so reply s is server s's.
      for (std::size_t s = 0; s < replies.size(); ++s) {
        pvm::PackBuffer& r = replies[s];
        evdw += r.unpack_f64();
        ecoul += r.unpack_f64();
        const std::vector<double> flat = r.unpack_f64_array();
        const std::size_t centers = for_each_center(
            method, mc_.n(), shares[s].local,
            [&](std::size_t k, std::size_t i) {
              grad[i] += Vec3{flat[3 * k], flat[3 * k + 1], flat[3 * k + 2]};
            });
        seq_ops += OpMixes::reduce_center * centers;
      }
      finish_step(mc_, cfg_, step, evdw, ecoul, client.velocities, grad,
                  client.minimizer, client.result.physics, seq_ops);
      co_await task.cpu().compute(
          seq_ops, mc_.n() * (sizeof(MassCenter) + 2 * sizeof(Vec3)));
      metrics.seq_comp += engine.now() - t_seq0;
      if (obs::enabled()) {
        obs::span(obs::Cat::kPhase, "seq", t_seq0, engine.now(), 0,
                  {"step", static_cast<double>(step)});
      }
    }

    metrics.wall = engine.now() - client.t_start;
    co_await rpc.shutdown(task);
  });

  if (resume_snap) {
    // Phase 1: drain the freshly rebuilt task graph to its parked state —
    // servers on their request recv, the client on the resume fence.  No
    // sink is installed, so the reconstruction leaves no trace events.
    engine.run();
    if (!resume_fence) {
      util::fatal("ckpt", "resume: client never reached the resume fence",
                  engine.now());
    }
    // Each restore checks its record against the rebuilt run before it
    // changes anything.  The RPC layer goes before the servers, whose
    // disjointness check reads its failure detector's belief.
    const ckpt::RunSnapshot& s = *resume_snap;
    engine.restore(s.engine);
    machine.restore(s.machine);
    pvm.restore(s.pvm);
    rpc.restore(s.rpc);
    restore_servers(servers, s.servers, rpc, n);
    client.restore(s.client, mc_, cfg_.steps, servers.size(), fault_tolerant);
    ckpt_acct = s.accounting;
    // Install the sink continuing the recorded event sequence: the resumed
    // tail's seq numbers line up with the golden run's.
    if (!trace_path.empty()) {
      trace_sink.emplace();
      trace_sink->set_next_seq(s.sink_next_seq);
      trace_scope.emplace(*trace_sink);
    }
    // Phase 2: hand control back to the client at the step-loop top (direct
    // resume — no event is scheduled, no sequence number consumed) and run
    // the tail to completion.
    resume_fence.resume();
  }
  engine.run();

  const sim::FaultModel::Counters& fc = machine.fault().counters();
  metrics.msgs_dropped = fc.dropped;
  metrics.msgs_duplicated = fc.duplicated;
  metrics.msgs_corrupted = fc.corrupted;
  const sciddle::RecoveryTotals& rt = rpc.recovery_totals();
  metrics.retries = rt.retries;
  metrics.timeouts = rt.timeouts;
  metrics.heartbeats = rt.heartbeats;
  metrics.servers_failed = rt.servers_failed;

  for (int s = 0; s < num_servers_; ++s) {
    metrics.pairs_checked += servers[s].pairs_checked;
    metrics.pairs_evaluated += servers[s].pairs_evaluated;
    const auto& counter = machine.cpu(s + 1).counter();
    client.result.server_busy.push_back(counter.busy_seconds());
    client.result.server_counted_mflop.push_back(
        counter.counted_mflop(platform_.cpu.intrinsics));
  }

  if (trace_sink) {
    const std::string path = obs::unique_output_path(trace_path);
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    obs::write_file(
        path, csv ? trace_sink->to_csv() : trace_sink->to_chrome_json());
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry reg;
    const sim::EngineCounters ec = engine.counters();
    reg.add("engine.events_processed", ec.events_processed);
    reg.add("engine.queue.pushes", ec.queue.pushes);
    reg.add("engine.queue.pops", ec.queue.pops);
    reg.add("engine.queue.cancels", ec.queue.cancels);
    reg.add("engine.queue.peak_size", ec.queue.peak_size);
    if (!ckpt_active) {
      // Frame-pool stats are thread-local and process-lifetime: a resumed
      // process cannot reproduce them, so checkpointed runs omit the keys
      // entirely (golden and resumed runs then emit identical JSON).
      reg.add("engine.pool.reused", ec.frame_pool.reused);
      reg.add("engine.pool.carved", ec.frame_pool.carved);
      reg.add("engine.pool.fallback", ec.frame_pool.fallback);
      reg.set("engine.pool.hit_rate", ec.frame_pool.hit_rate());
      // Host-path counters: same omission rule — restore() resets them, so
      // a resumed run could not reproduce the golden run's values.
      std::uint64_t cell_upd = 0, rebuilds = 0, upd = 0;
      for (int s = 0; s < num_servers_; ++s) {
        const PairUpdateStats& ps = servers[s].domain.stats();
        upd += ps.updates;
        cell_upd += ps.cell_updates;
        rebuilds += ps.verlet_rebuilds;
      }
      reg.add("cells.path_taken", cell_upd);
      reg.add("cells.rebuilds", rebuilds);
      reg.add("cells.updates", upd);
    }
    reg.add("pvm.bytes_sent", pvm.bytes_sent());
    reg.add("pvm.messages_sent", pvm.messages_sent());
    reg.add("fault.dropped", fc.dropped);
    reg.add("fault.duplicated", fc.duplicated);
    reg.add("fault.corrupted", fc.corrupted);
    reg.add("fault.daemon_stalls", fc.daemon_stalls);
    reg.add("rpc.retries", rt.retries);
    reg.add("rpc.timeouts", rt.timeouts);
    reg.add("rpc.heartbeats", rt.heartbeats);
    reg.add("rpc.servers_failed", rt.servers_failed);
    if (ckpt_active) {
      reg.add("ckpt.images_written", ckpt_acct.images_written);
      reg.add("ckpt.bytes_written", ckpt_acct.bytes_written);
      reg.add("ckpt.deferred", ckpt_acct.deferred);
    }
    reg.set("run.par_update_s", metrics.par_update);
    reg.set("run.par_nbint_s", metrics.par_nbint);
    reg.set("run.seq_comp_s", metrics.seq_comp);
    reg.set("run.comm_s", metrics.tot_comm());
    reg.set("run.sync_s", metrics.sync);
    reg.set("run.idle_s", metrics.idle);
    reg.set("run.recovery_s", metrics.recovery);
    reg.set("run.wall_s", metrics.wall);
    auto& busy = reg.histogram(
        "run.server_busy_s",
        {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0});
    for (const double b : client.result.server_busy) busy.observe(b);
    obs::write_file(obs::unique_output_path(metrics_path), reg.to_json());
  }
  return std::move(client.result);
}

}  // namespace opalsim::opal
