#include "opal/decomp.hpp"

#include <algorithm>
#include <cmath>

#include "opal/forcefield.hpp"
#include "opal/serial.hpp"
#include "opal/soa.hpp"
#include "pvm/pvm_system.hpp"
#include "sim/engine.hpp"
#include "util/fatal.hpp"

namespace opalsim::opal {

std::string to_string(Method m) {
  switch (m) {
    case Method::ReplicatedData:
      return "replicated data (RD)";
    case Method::SpaceDecomposition:
      return "space decomposition (SD)";
    case Method::ForceDecomposition:
      return "force decomposition (FD)";
  }
  return "?";
}

std::pair<int, int> fd_grid(int p) {
  if (p <= 0) throw util::ConfigError("opal", "fd_grid: p must be > 0");
  int a = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (a > 1 && p % a != 0) --a;
  return {a, p / a};
}

double call_bytes_per_step(Method method, std::size_t n, int p,
                           double ghost_fraction) {
  const double alpha = 24.0;
  const double nd = static_cast<double>(n);
  switch (method) {
    case Method::ReplicatedData:
      return alpha * nd * p;  // everyone gets all coordinates
    case Method::SpaceDecomposition:
      // Own slabs sum to n; each server adds its ghost share.
      return alpha * nd * (1.0 + ghost_fraction * p);
    case Method::ForceDecomposition: {
      const auto [a, b] = fd_grid(p);
      // Server (u,v) gets row band n/a plus column band n/b.
      return alpha * (nd / a + nd / b) * p;
    }
  }
  return 0.0;
}

namespace {

/// Wire tags for the method-specific update payload.
constexpr std::uint64_t kPayloadSd = 0;
constexpr std::uint64_t kPayloadFd = 1;

/// Per-server state shared by the SD and FD drivers.
struct DecompServerState {
  MolecularComplex replica;          ///< positions valid at local indices
  std::vector<std::uint32_t> local;  ///< atoms whose coordinates arrive
  std::vector<PairIdx> candidates;   ///< pair domain (global indices)
  std::vector<PairIdx> active;       ///< after cut-off filtering
  CentersSoA soa;                    ///< kernel mirror of `replica`
  std::vector<Vec3> grad;            ///< dense scratch, size n
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_evaluated = 0;

  std::size_t working_set_bytes() const {
    return local.size() * (sizeof(MassCenter) + sizeof(Vec3)) +
           (candidates.size() + active.size()) * sizeof(PairIdx);
  }

  void apply_coords(const std::vector<double>& flat) {
    for (std::size_t k = 0; k < local.size(); ++k) {
      replica.centers[local[k]].position =
          Vec3{flat[3 * k], flat[3 * k + 1], flat[3 * k + 2]};
    }
  }

  /// Filters candidates by cut-off (all kept when cutoff <= 0); returns the
  /// number of pairs checked.
  std::uint64_t build_active(double cutoff) {
    pairs_checked += candidates.size();
    if (cutoff <= 0.0) {
      active = candidates;
      return candidates.size();
    }
    active.clear();
    const double c2 = cutoff * cutoff;
    for (const PairIdx& pr : candidates) {
      if (within_cutoff(replica, pr.i, pr.j, c2)) active.push_back(pr);
    }
    return candidates.size();
  }
};

/// The client's view of one server's assignment for the current epoch.
struct Assignment {
  std::vector<std::uint32_t> local;  ///< coordinate recipients, own first
  std::uint64_t own_count = 0;       ///< SD: split between own and ghost
  std::uint32_t rlo = 0, rhi = 0;    ///< FD: row band
  std::uint32_t clo = 0, chi = 0;    ///< FD: column band
};

/// SD: slab ownership by current x coordinate plus one-sided ghosts.
std::vector<Assignment> sd_assign(const MolecularComplex& mc, int p,
                                  double cutoff) {
  const auto n = static_cast<std::uint32_t>(mc.n());
  const double box = mc.box_length;
  std::vector<int> slab(n);
  std::vector<Assignment> out(p);
  for (std::uint32_t i = 0; i < n; ++i) {
    const int s = std::clamp(
        static_cast<int>(std::floor(mc.centers[i].position.x / box * p)), 0,
        p - 1);
    slab[i] = s;
    out[s].local.push_back(i);
  }
  for (int s = 0; s < p; ++s) {
    Assignment& a = out[s];
    a.own_count = a.local.size();
    // One-sided ghosts: higher-slab atoms within the cut-off of this slab's
    // upper boundary (all higher-slab atoms when there is no cut-off), so a
    // cross-slab pair is computed exactly once, by the lower slab's owner.
    const double hi = box * (s + 1) / p;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (slab[j] <= s) continue;
      if (cutoff > 0.0 && mc.centers[j].position.x > hi + cutoff) continue;
      a.local.push_back(j);
    }
  }
  return out;
}

/// FD: contiguous row/column bands over atom indices.
std::vector<Assignment> fd_assign(std::uint32_t n, int p) {
  const auto [a, b] = fd_grid(p);
  auto range_of = [n](int k, int parts) {
    const auto lo = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(k) * n / parts);
    const auto hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(k + 1) * n / parts);
    return std::pair<std::uint32_t, std::uint32_t>{lo, hi};
  };
  std::vector<Assignment> out(p);
  for (int u = 0; u < a; ++u) {
    const auto [rlo, rhi] = range_of(u, a);
    for (int v = 0; v < b; ++v) {
      const auto [clo, chi] = range_of(v, b);
      Assignment& as = out[u * b + v];
      as.rlo = rlo;
      as.rhi = rhi;
      as.clo = clo;
      as.chi = chi;
      for (std::uint32_t i = rlo; i < rhi; ++i) as.local.push_back(i);
      for (std::uint32_t j = clo; j < chi; ++j) {
        if (j < rlo || j >= rhi) as.local.push_back(j);
      }
      std::sort(as.local.begin(), as.local.end());
      as.own_count = as.local.size();
    }
  }
  return out;
}

std::vector<double> coords_for(const MolecularComplex& mc,
                               const std::vector<std::uint32_t>& idx) {
  std::vector<double> coords(3 * idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const Vec3& pos = mc.centers[idx[k]].position;
    coords[3 * k] = pos.x;
    coords[3 * k + 1] = pos.y;
    coords[3 * k + 2] = pos.z;
  }
  return coords;
}

ParallelRunResult run_decomposed(Method method,
                                 const mach::PlatformSpec& platform,
                                 MolecularComplex mc, int num_servers,
                                 SimulationConfig cfg,
                                 sciddle::Options middleware) {
  cfg.validate();
  if (num_servers <= 0)
    throw util::ConfigError("opal",
                            "run_decomposed: need at least one server");

  sim::Engine engine;
  mach::Machine machine(engine, platform, num_servers + 1);
  pvm::PvmSystem pvm(machine);
  sciddle::Rpc rpc(pvm, num_servers, middleware);

  std::vector<DecompServerState> servers;
  servers.reserve(num_servers);
  for (int s = 0; s < num_servers; ++s) {
    DecompServerState st{mc, {}, {}, {}, {}, {}, 0, 0};
    st.soa.refresh_params(st.replica);
    st.grad.resize(mc.n());
    servers.push_back(std::move(st));
  }

  // "update": receive the assignment (index list + coordinates), enumerate
  // the candidate pairs per the method's rule, distance-filter into the
  // active list.  Pair enumeration and filtering are the server's update
  // work and are charged to its CPU.
  rpc.register_proc(
      "update",
      [&servers, &cfg](pvm::PackBuffer args, sciddle::ServerContext& ctx)
          -> sim::Task<pvm::PackBuffer> {
        DecompServerState& st = servers[ctx.server_index];
        const std::uint64_t kind = args.unpack_u64();
        st.candidates.clear();
        if (kind == kPayloadSd) {
          const std::uint64_t own_count = args.unpack_u64();
          st.local = args.unpack_u32_array();
          st.apply_coords(args.unpack_f64_array());
          // Own-own pairs once, own-ghost always, never ghost-ghost.
          for (std::size_t ai = 0; ai < own_count; ++ai) {
            for (std::size_t bi = ai + 1; bi < st.local.size(); ++bi) {
              std::uint32_t i = st.local[ai];
              std::uint32_t j = st.local[bi];
              if (i > j) std::swap(i, j);
              st.candidates.push_back(PairIdx{i, j});
            }
          }
        } else {
          const auto rlo = args.unpack_u64();
          const auto rhi = args.unpack_u64();
          const auto clo = args.unpack_u64();
          const auto chi = args.unpack_u64();
          st.local = args.unpack_u32_array();
          st.apply_coords(args.unpack_f64_array());
          // Pairs (i < j) with i in the row band, j in the column band.
          for (std::uint64_t i = rlo; i < rhi; ++i) {
            for (std::uint64_t j = std::max(clo, i + 1); j < chi; ++j) {
              st.candidates.push_back(PairIdx{static_cast<std::uint32_t>(i),
                                              static_cast<std::uint32_t>(j)});
            }
          }
        }
        const std::uint64_t checked = st.build_active(cfg.cutoff);
        co_await ctx.task.cpu().compute(OpMixes::update_pair * checked,
                                        st.working_set_bytes());
        co_return pvm::PackBuffer{};
      });

  rpc.register_proc(
      "nbint",
      [&servers](pvm::PackBuffer args, sciddle::ServerContext& ctx)
          -> sim::Task<pvm::PackBuffer> {
        DecompServerState& st = servers[ctx.server_index];
        st.apply_coords(args.unpack_f64_array());
        st.soa.refresh_positions(st.replica);
        for (std::uint32_t idx : st.local) st.grad[idx] = Vec3{};
        double evdw = 0.0, ecoul = 0.0;
        nonbonded_batch(st.soa, st.active, evdw, ecoul, st.grad);
        st.pairs_evaluated += st.active.size();
        co_await ctx.task.cpu().compute(
            OpMixes::nbint_pair * st.active.size(), st.working_set_bytes());
        pvm::PackBuffer out;
        out.pack_f64(evdw);
        out.pack_f64(ecoul);
        std::vector<double> flat(3 * st.local.size());
        for (std::size_t k = 0; k < st.local.size(); ++k) {
          const Vec3& g = st.grad[st.local[k]];
          flat[3 * k] = g.x;
          flat[3 * k + 1] = g.y;
          flat[3 * k + 2] = g.z;
        }
        out.pack_f64_array(flat);
        co_return out;
      });

  rpc.start();

  ParallelRunResult result;
  RunMetrics& metrics = result.metrics;

  pvm.spawn(0, [&](pvm::PvmTask& client) -> sim::Task<void> {
    std::vector<Vec3> velocities(mc.n());
    std::vector<Vec3> grad(mc.n());
    SteepestDescent minimizer(cfg.min_step);
    std::vector<Assignment> assign;
    const double t_start = engine.now();

    for (int step = 0; step < cfg.steps; ++step) {
      if (step % cfg.update_every == 0) {
        assign = method == Method::SpaceDecomposition
                     ? sd_assign(mc, num_servers, cfg.cutoff)
                     : fd_assign(static_cast<std::uint32_t>(mc.n()),
                                 num_servers);
        std::vector<pvm::PackBuffer> args(num_servers);
        for (int s = 0; s < num_servers; ++s) {
          const Assignment& a = assign[s];
          pvm::PackBuffer& b = args[s];
          if (method == Method::SpaceDecomposition) {
            b.pack_u64(kPayloadSd);
            b.pack_u64(a.own_count);
          } else {
            b.pack_u64(kPayloadFd);
            b.pack_u64(a.rlo);
            b.pack_u64(a.rhi);
            b.pack_u64(a.clo);
            b.pack_u64(a.chi);
          }
          b.pack_u32_array(a.local);
          b.pack_f64_array(coords_for(mc, a.local));
        }
        const sciddle::CallAllStats st =
            co_await rpc.call_all(client, "update", std::move(args), nullptr);
        metrics.call_upd += st.call_time;
        metrics.return_upd += st.return_time;
        metrics.sync += st.sync_time;
        metrics.par_update += st.par_time();
        metrics.idle += st.idle_time();
        ++metrics.list_updates;
      }

      // nbint round: ship each server its locals' current coordinates.
      std::vector<pvm::PackBuffer> args(num_servers);
      for (int s = 0; s < num_servers; ++s) {
        args[s].pack_f64_array(coords_for(mc, assign[s].local));
      }
      std::vector<pvm::PackBuffer> replies;
      const sciddle::CallAllStats st =
          co_await rpc.call_all(client, "nbint", std::move(args), &replies);
      metrics.call_nbi += st.call_time;
      metrics.return_nbi += st.return_time;
      metrics.sync += st.sync_time;
      metrics.par_nbint += st.par_time();
      metrics.idle += st.idle_time();

      // Sequential part: sparse reduction + bonded + integration.
      const double t_seq0 = engine.now();
      hpm::OpCounts seq_ops;
      double evdw = 0.0, ecoul = 0.0;
      std::fill(grad.begin(), grad.end(), Vec3{});
      for (int s = 0; s < num_servers; ++s) {
        evdw += replies[s].unpack_f64();
        ecoul += replies[s].unpack_f64();
        const std::vector<double> flat = replies[s].unpack_f64_array();
        const Assignment& a = assign[s];
        for (std::size_t k = 0; k < a.local.size(); ++k) {
          grad[a.local[k]] +=
              Vec3{flat[3 * k], flat[3 * k + 1], flat[3 * k + 2]};
        }
        seq_ops += OpMixes::reduce_center * a.local.size();
      }
      finish_step(mc, cfg, step, evdw, ecoul, velocities, grad, minimizer,
                  result.physics, seq_ops);
      co_await client.cpu().compute(
          seq_ops, mc.n() * (sizeof(MassCenter) + 2 * sizeof(Vec3)));
      metrics.seq_comp += engine.now() - t_seq0;
    }

    metrics.wall = engine.now() - t_start;
    co_await rpc.shutdown(client);
  });

  engine.run();

  for (int s = 0; s < num_servers; ++s) {
    metrics.pairs_checked += servers[s].pairs_checked;
    metrics.pairs_evaluated += servers[s].pairs_evaluated;
    const auto& counter = machine.cpu(s + 1).counter();
    result.server_busy.push_back(counter.busy_seconds());
    result.server_counted_mflop.push_back(
        counter.counted_mflop(platform.cpu.intrinsics));
  }
  return result;
}

}  // namespace

ParallelRunResult run_with_method(Method method,
                                  const mach::PlatformSpec& platform,
                                  MolecularComplex mc, int num_servers,
                                  const SimulationConfig& cfg,
                                  sciddle::Options middleware) {
  if (method == Method::ReplicatedData) {
    ParallelOpal run(platform, std::move(mc), num_servers, cfg, middleware);
    return run.run();
  }
  return run_decomposed(method, platform, std::move(mc), num_servers, cfg,
                        middleware);
}

}  // namespace opalsim::opal
