// The one move/measure loop of the miniQMC sweep, and the walker population
// around it.  Every driver advances walkers through crowd_sweep_steps: the
// VMC drivers (walker_population.cpp; per-walker is crowds of one) and the
// DMC generations (dmc_driver.cpp, drift as the proposal-centre argument)
// through the PopulationCore each owns, the JobQueue's per-shard workers
// (job_queue.cpp) on their ephemeral packs.  A crowd is
// a contiguous walker range [first, first+count) advanced in lock-step: each
// electron move gathers the crowd's trial positions into ONE multi-position
// OrbitalSet request.  All per-walker arithmetic (distance tables,
// Jastrow/determinant ratios, Metropolis decisions, rng draws) is
// miniqmc_context.h's, so a trajectory is a function of (seed, walker id)
// alone — bit-for-bit the same for any crowd decomposition, which is what
// makes crowd sizes, shard counts and job packing trajectory-neutral by
// construction.
//
// Like miniqmc_context.h, this header is an implementation detail of the
// qmc/ translation units, not public API.
#ifndef MQC_QMC_CROWD_SWEEP_H
#define MQC_QMC_CROWD_SWEEP_H

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <variant>
#include <vector>

#include "common/contracts.h"
#include "core/coef_storage.h"
#include "qmc/miniqmc_context.h"

namespace mqc::detail {

/// Per-crowd scratch: gathered trial positions, per-walker output-slot
/// pointer tables for the multi-position requests, and the OrbitalResource
/// owning the batch's weight sets.  Everything here is walker-INVARIANT
/// (slot pointers into per-walker buffers that live as long as the walker):
/// build it once per crowd, outside the epoch loop, so the timed sweep —
/// and a checkpoint_interval=1 run's every-step epochs — allocate nothing.
struct CrowdScratch
{
  CrowdScratch(std::vector<WalkerState>& walkers, int first, int count, const MiniQMCSystem& sys)
  {
    rnew.resize(static_cast<std::size_t>(count));
    v.resize(static_cast<std::size_t>(count));
    g.resize(static_cast<std::size_t>(count));
    h.resize(static_cast<std::size_t>(count));
    l.resize(static_cast<std::size_t>(count));
    quad_v.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(sys.nq));
    quad_pos.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(sys.nq));
    (void)ores.weights_for(count * sys.nq);
    for (int i = 0; i < count; ++i) {
      WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
      const auto ui = static_cast<std::size_t>(i);
      v[ui] = w.out.v.data();
      g[ui] = w.out.g.data();
      h[ui] = w.out.h.data();
      l[ui] = w.out.l.data();
      for (int q = 0; q < sys.nq; ++q)
        quad_v[ui * static_cast<std::size_t>(sys.nq) + static_cast<std::size_t>(q)] =
            w.quad_v_ptrs[static_cast<std::size_t>(q)];
    }
  }

  std::vector<Vec3<qmc_real>> rnew;
  std::vector<qmc_real*> v, g, h, l;   ///< per-walker component slots
  std::vector<qmc_real*> quad_v;       ///< count*nq quadrature value slots
  std::vector<Vec3<qmc_real>> quad_pos; ///< gathered count*nq quadrature positions
  OrbitalResource<qmc_real> ores;      ///< weight sets for the crowd's batches
};

/// One VGH (move) or VGL (kinetic energy) request for the crowd's positions
/// in scr.rnew[0..count), landing in each walker's own output buffer.
/// @p team is the crowd's inner team: with more than one thread the facade
/// forks the (tile, position-block) sweep under this crowd's outer thread
/// (Opt C).
inline void crowd_eval(const MiniQMCSystem& sys, std::vector<WalkerState>& walkers, int first,
                       int count, DerivLevel deriv, CrowdScratch& scr, TeamHandle team)
{
  OrbitalEvalRequest<qmc_real> rq;
  rq.deriv = deriv;
  rq.positions = scr.rnew.data();
  rq.count = count;
  rq.v = scr.v.data();
  rq.g = scr.g.data();
  rq.lh = deriv == DerivLevel::VGH ? scr.h.data() : scr.l.data();
  rq.stride = sys.out_pad;
  rq.parallel = team.parallel();
  rq.team = team;
  sys.spo.evaluate(rq, scr.ores);
  for (int i = 0; i < count; ++i)
    walkers[static_cast<std::size_t>(first + i)].orbital_evals +=
        static_cast<std::size_t>(sys.norb);
}

/// One V request over the whole crowd's quadrature points (count*nq
/// positions, each walker's nq points already proposed into its quad_r).
inline void crowd_eval_quad_v(const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                              std::vector<WalkerState>& walkers, int first, int count,
                              CrowdScratch& scr, TeamHandle team)
{
  const int nq = cfg.quadrature_points;
  // Gather the crowd's quadrature positions into one contiguous batch.
  for (int i = 0; i < count; ++i) {
    const WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
    std::copy(w.quad_r.begin(), w.quad_r.begin() + nq,
              scr.quad_pos.begin() + static_cast<std::size_t>(i) * static_cast<std::size_t>(nq));
  }
  OrbitalEvalRequest<qmc_real> rq;
  rq.deriv = DerivLevel::V;
  rq.positions = scr.quad_pos.data();
  rq.count = count * nq;
  rq.v = scr.quad_v.data();
  rq.parallel = team.parallel();
  rq.team = team;
  sys.spo.evaluate(rq, scr.ores);
  for (int i = 0; i < count; ++i)
    walkers[static_cast<std::size_t>(first + i)].orbital_evals +=
        static_cast<std::size_t>(nq) * static_cast<std::size_t>(sys.norb);
}

/// Langevin drift centre for electron @p e of @p w: r + scale*g, with g the
/// gradient of the electron's own orbital column from a VGL at the current
/// positions (already in the walker's output buffer) and the drift magnitude
/// clamped at 1/sqrt(tau), the standard near-node guard.
inline Vec3<qmc_real> drift_centre(const WalkerState& w, const MiniQMCSystem& sys, int e,
                                   const Vec3<qmc_real>& r, double tau)
{
  const int col = e < sys.norb ? e : e - sys.norb;
  const qmc_real* g = w.out.g.data() + static_cast<std::size_t>(col) * w.out.g_orb;
  const auto gx = static_cast<double>(g[0]);
  const auto gy = static_cast<double>(g[w.out.g_comp]);
  const auto gz = static_cast<double>(g[2 * w.out.g_comp]);
  const double vmax = 1.0 / std::sqrt(tau);
  const double vnorm = std::sqrt(gx * gx + gy * gy + gz * gz);
  const double scale = vnorm > vmax ? tau * vmax / vnorm : tau;
  return Vec3<qmc_real>{static_cast<qmc_real>(r.x + scale * gx),
                        static_cast<qmc_real>(r.y + scale * gy),
                        static_cast<qmc_real>(r.z + scale * gz)};
}

/// Advance the crowd [first, first+count) from step @p step_begin to
/// @p step_end (exclusive): the lock-step drift-diffusion + measurement body
/// every driver runs.  Call inside the consumer's outer region (or from a
/// plain thread with a serial @p team); snapshots and fault points stay
/// OUTSIDE, at the epoch boundaries between calls.
///
/// @p drift_tau is the proposal-centre policy.  Zero (VMC, DMC replay)
/// proposes around the current position.  Above zero (full DMC), one extra
/// VGL request at the crowd's current positions of each electron supplies
/// the gradient that moves the centre to drift_centre().  Either way the
/// proposal draws exactly three gaussians per electron from the walker's
/// stream, so the draw sequence is the same move for move.
inline void crowd_sweep_steps(const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                              std::vector<WalkerState>& walkers, int first, int count,
                              CrowdScratch& scr, ProfileRegistry& cprof, TeamHandle inner,
                              int step_begin, int step_end, double drift_tau = 0.0)
{
  if (count <= 0)
    return;
  // Every walker holds the electron layout its config selects: resolve it
  // once here, and run the body below on that one layout.
  std::visit(
      [&]<typename E>(E&) {
        const auto walker = [&](int i) -> WalkerState& {
          return walkers[static_cast<std::size_t>(first + i)];
        };
        const auto electrons = [&](int i) -> E& { return std::get<E>(walker(i).electrons); };
        // One VGL request at the crowd's current positions of electron e.
        const auto eval_vgl_at = [&](int e) {
          ScopedTimer t(cprof, kSectionBspline);
          for (int i = 0; i < count; ++i)
            scr.rnew[static_cast<std::size_t>(i)] = electrons(i).r[e];
          crowd_eval(sys, walkers, first, count, DerivLevel::VGL, scr, inner);
        };
        const bool drift = drift_tau > 0.0;
        for (int s = step_begin; s < step_end; ++s) {
          // Drift-diffusion phase: the whole crowd moves electron e together.
          for (int e = 0; e < sys.nel; ++e) {
            if (drift)
              eval_vgl_at(e);
            for (int i = 0; i < count; ++i) {
              WalkerState& w = walker(i);
              ++w.attempted;
              const Vec3<qmc_real> r_old = electrons(i).r[e];
              const Vec3<qmc_real> centre =
                  drift ? drift_centre(w, sys, e, r_old, drift_tau) : r_old;
              scr.rnew[static_cast<std::size_t>(i)] = propose(w.rng, centre, cfg.move_sigma);
            }
            {
              ScopedTimer t(cprof, kSectionBspline);
              crowd_eval(sys, walkers, first, count, DerivLevel::VGH, scr, inner);
            }
            for (int i = 0; i < count; ++i)
              metropolis_move(walker(i), electrons(i), sys, e,
                              scr.rnew[static_cast<std::size_t>(i)]);
          }

          // Measurement phase, electron by electron across the crowd: one VGL
          // request (kinetic energy), per-walker quadrature proposals and
          // distance/Jastrow ratios, then one V request over all count*nq
          // quadrature points.  Proposing every point before the V request
          // draws the same rng sequence as point-by-point evaluation, since
          // neither the distance tables nor the kernels consume randomness.
          for (int e = 0; e < sys.nel; ++e) {
            eval_vgl_at(e);
            for (int i = 0; i < count; ++i) {
              WalkerState& w = walker(i);
              const Vec3<qmc_real> re = electrons(i).r[e];
              for (int q = 0; q < cfg.quadrature_points; ++q)
                w.quad_r[static_cast<std::size_t>(q)] = propose(w.rng, re, 0.5);
              quadrature_dist_jastrow(w, electrons(i), sys, cfg, e);
            }
            if (cfg.quadrature_points > 0) {
              ScopedTimer t(cprof, kSectionBspline);
              crowd_eval_quad_v(sys, cfg, walkers, first, count, scr, inner);
            }
          }
          for (int i = 0; i < count; ++i)
            full_jastrow(walker(i), electrons(i), sys);
        }
      },
      walkers[static_cast<std::size_t>(first)].electrons);
}

// --------------------------------------------------------------------------
// The walker population every driver owns (PopulationCore below) and its
// scaffolding.
// --------------------------------------------------------------------------

/// One lock-step crowd: a contiguous walker range inside one shard.
struct CrowdRef
{
  int shard = 0;
  int first = 0;
  int count = 0;
};

/// Crowd-size cap per shard: explicit > 0, 0 = whole shard, -1 = the tuned
/// size from cfg.wisdom (0, the whole shard, when nothing was tuned).
inline int resolve_crowd_cap(const MiniQMCConfig& cfg, const MiniQMCSystem& sys) noexcept
{
  return cfg.crowd_size < 0 ? sys.tuned_crowd_size : cfg.crowd_size;
}

/// Contiguous walker -> shard -> crowd split of @p nw walkers: walker ids are
/// block-partitioned over the shards, and each shard's range is cut into
/// crowds of at most @p crowd_cap walkers (a smaller trailing crowd takes the
/// remainder).  Empty shards (a DMC population below the shard count after
/// deaths) contribute no crowds.
inline std::vector<CrowdRef> decompose_population(int nw, int num_shards, int crowd_cap)
{
  std::vector<CrowdRef> crowds;
  for (int s = 0; s < num_shards; ++s) {
    const Range r = block_range(static_cast<std::size_t>(nw),
                                static_cast<std::size_t>(num_shards),
                                static_cast<std::size_t>(s));
    const int shard_nw = static_cast<int>(r.size());
    if (shard_nw == 0)
      continue;
    const int csize = crowd_cap > 0 ? std::min(crowd_cap, shard_nw) : shard_nw;
    for (int f = static_cast<int>(r.first); f < static_cast<int>(r.last); f += csize)
      crowds.push_back({s, f, std::min(static_cast<int>(r.last) - f, csize)});
  }
  return crowds;
}

/// Shard -> socket placement: @p num_shards shards in contiguous blocks over
/// @p sockets sockets (block_range, the split the auto shard count implies —
/// one shard per socket).  Non-empty blocks come first, so the sockets in use
/// are 0 .. min(num_shards, sockets) - 1.
inline std::vector<int> shard_sockets(int num_shards, int sockets)
{
  std::vector<int> socket(static_cast<std::size_t>(num_shards));
  for (int k = 0; k < sockets; ++k) {
    const Range r = block_range(socket.size(), static_cast<std::size_t>(sockets),
                                static_cast<std::size_t>(k));
    for (std::size_t s = r.first; s < r.last; ++s)
      socket[s] = k;
  }
  return socket;
}

/// The shard systems (paper §IV-V + the mctop placement model): the shards
/// sit on the topology's sockets in blocks (shard_sockets), and each socket
/// in use holds ONE system that its shards share.  Socket 0's system
/// generates its engine's coefficient tables, and every other socket's
/// system builds its engines and OrbitalSet facade over a FIRST-TOUCH
/// replica of exactly those tables (CoefReplicaSet: one copy of the
/// engine's set per socket, never an untiled table the engine does not
/// read), copied by the team member of the socket's first shard so the
/// pages land on that thread's socket.  Shards beyond the socket count add
/// workers and crowds, not tables.  Identical table bytes make this
/// bit-for-bit neutral.  Built once; only the walker -> shard map may change.
struct ShardSystems
{
  /// @p requested_shards: 0 = auto (MQC_SHARDS, else one per socket;
  /// common/threading.h resolve_shard_count), clamped to the walker count.
  ShardSystems(const MiniQMCConfig& cfg, int requested_shards)
  {
    sys.push_back(std::make_unique<MiniQMCSystem>(cfg));
    const int n = std::min(resolve_shard_count(requested_shards), sys.front()->nw);
    replicas = CoefReplicaSet<qmc_real>(sys.front()->tables,
                                        shard_sockets(n, machine_topology().sockets));
    sys.resize(static_cast<std::size_t>(replicas.num_sockets()));
    team_for(TeamHandle::of(n), n, [&](int s) {
      if (replicas.copies(s))
        sys[static_cast<std::size_t>(replicas.socket_of(s))] =
            std::make_unique<MiniQMCSystem>(cfg, replicas.replicate(s));
    });
    // Memory-footprint provenance (opt-in, stderr like the checkpoint
    // diagnostics): the coefficient table is the dominant resident
    // allocation, and the replica bytes are what the precision path halves.
    if (std::getenv("MQC_VERBOSE") != nullptr) {
      for (int s = 0; s < n; ++s) {
        const int k = replicas.socket_of(s);
        std::fprintf(stderr, "miniqmc: shard %d on socket %d: %s coef tables (%zu bytes)\n", s,
                     k, s == 0 ? "generated" : replicas.copies(s) ? "copied" : "adopted",
                     replicas.replica_bytes(k));
      }
      std::fprintf(stderr,
                   "miniqmc: coef replicas total: %zu bytes, %d set(s) for %d shard(s)\n",
                   replicas.total_replica_bytes(), replicas.num_sockets(), n);
    }
  }

  [[nodiscard]] int size() const noexcept { return replicas.num_shards(); }
  /// Shard @p s's system: its socket's, shared with the socket's other shards.
  [[nodiscard]] MiniQMCSystem& operator[](int s) const
  {
    return *sys[static_cast<std::size_t>(replicas.socket_of(s))];
  }
  [[nodiscard]] MiniQMCSystem& master() const { return *sys.front(); }

  CoefReplicaSet<qmc_real> replicas;
  std::vector<std::unique_ptr<MiniQMCSystem>> sys; ///< [sockets in use]
};

/// The provenance block every driver's MiniQMCResult starts from: shape, the
/// resolved crowd size (the cap clamped to the population), and the spline,
/// precision and team paths the sweep runs.  The spline path is
/// multi-position only when the engine has native multi-position kernels AND
/// a crowd batches more than one walker — a crowd of one (the per-walker
/// driver) runs single-position requests on every layout.
inline MiniQMCResult run_provenance(const MiniQMCSystem& sys, int nw, int crowd_cap,
                                    const ThreadPartition& part)
{
  MiniQMCResult r;
  r.num_walkers = nw;
  r.num_electrons = sys.nel;
  r.num_orbitals = sys.norb;
  r.crowd_size_used = crowd_cap > 0 ? std::min(crowd_cap, nw) : nw;
  r.spline_path = sys.spo.capabilities().native_multi_eval && r.crowd_size_used > 1
                      ? EvalPath::MultiPosition
                      : EvalPath::SinglePosition;
  r.precision_path = sys.precision;
  r.team_path = classify_team_path(part.outer, part.inner);
  r.outer_threads_used = part.outer;
  r.inner_threads_used = part.inner;
  return r;
}

/// The walker population every driver owns — WalkerPopulation (every VMC run
/// and the JobQueue's resident service) and run_miniqmc_dmc — so the drivers
/// keep only their step loops: VMC's epochs, DMC's generations and branch
/// step.  It holds the shard systems, the walker -> shard -> crowd split,
/// the nested-team partition, ONE flat walker vector indexed by walker id
/// (one Walker section per id, so snapshots written under any shard count
/// interoperate) with each crowd's CrowdScratch, the checkpoint runtime and
/// the result provenance.
///
/// Every team region here is a team_for over the crowd ids, so the static
/// schedule keeps the crowd -> thread map stable: scratch is first-touched
/// on the thread that sweeps it.  Walker state is a function of (config,
/// walker id) only — a shard system only changes WHERE the table is read.
struct PopulationCore
{
  /// @p requested_shards: 0 = auto (see ShardSystems).  Builds every walker
  /// in one team region, one crowd per team member on its shard's system.
  PopulationCore(const MiniQMCConfig& config, int requested_shards)
      : cfg(config), shards(cfg, requested_shards)
  {
    const MiniQMCSystem& sys0 = shards.master();
    crowd_cap = resolve_crowd_cap(cfg, sys0);
    crowds = decompose_population(sys0.nw, shards.size(), crowd_cap);
    // One outer member per crowd, each owning an inner team for its facade
    // sweeps (Opt C); resolved once, kept across re-blocks.
    const ThreadPartition part =
        resolve_team_partition(cfg, sys0, static_cast<int>(crowds.size()));
    inner = TeamHandle::inner_of(part);
    status = run_provenance(sys0, sys0.nw, crowd_cap, part);
    ckrt = make_checkpoint_runtime(cfg, sys0);

    // MiniQMCResult::seconds spans the walker build and the resume as well
    // as the sweeps (set-up = wall time - seconds leaves only the system
    // build).
    Stopwatch watch;
    walkers.resize(static_cast<std::size_t>(sys0.nw));
    bind_crowds(/*fresh=*/true);
    status.seconds = watch.elapsed();
  }

  /// Advance every crowd from @p step_begin to @p step_end in one team
  /// region.  @p drift_tau is crowd_sweep_steps' proposal-centre policy.
  void sweep(int step_begin, int step_end, double drift_tau = 0.0)
  {
    const int n = static_cast<int>(crowds.size());
    mqc_contract(crowds.back().first + crowds.back().count == static_cast<int>(walkers.size()),
                 "crowds cover %d walkers, the population holds %zu: the walker vector "
                 "changed without reblock()",
                 crowds.back().first + crowds.back().count, walkers.size());
    team_for(TeamHandle::of(n), n, [&](int ci) {
      const CrowdRef& c = crowds[static_cast<std::size_t>(ci)];
      CrowdScratch& scr = *scratch[static_cast<std::size_t>(ci)];
#ifdef MQC_CONTRACTS
      // The scratch must point at this crowd's walkers.
      for (int i = 0; i < c.count; ++i)
        mqc_contract(scr.v[static_cast<std::size_t>(i)] ==
                         walkers[static_cast<std::size_t>(c.first + i)].out.v.data(),
                     "crowd %d swept with stale scratch: the walker vector changed "
                     "without reblock()",
                     ci);
#endif
      crowd_sweep_steps(shards[c.shard], cfg, walkers, c.first, c.count, scr,
                        crowd_profiles[static_cast<std::size_t>(ci)], inner, step_begin,
                        step_end, drift_tau);
    });
  }

  /// The step-boundary hook, called between team regions: an
  /// interval-aligned or final snapshot of the live walkers (with DMC's Meta
  /// tail when @p dmc is set), armed file faults, and the abort fault.
  void boundary(int step, int steps, const DmcRunState* dmc = nullptr)
  {
#ifdef MQC_CONTRACTS
    // No facade evaluation may own a crowd's resource here, or the snapshot
    // would capture scratch mid-flight.
    for (const auto& scr : scratch)
      mqc_contract(!scr->ores.contract_live,
                   "checkpoint at step %d taken while an OrbitalResource is live", step);
#endif
    checkpoint_step_boundary(ckrt, cfg, shards.master(), walkers, dmc, step, steps, status);
  }

  /// Resume from the config's snapshot, outside any team region, and return
  /// the step to continue from (0 = fresh start; outcome surfaced in
  /// `status`).  Without @p dmc the walkers are restored in place; with it,
  /// the population takes the snapshot's size and branching provenance and
  /// is re-blocked.  The config hash and the Walker sections are shard- and
  /// crowd-free, so a snapshot written under any decomposition restores.
  int resume(DmcRunState* dmc = nullptr)
  {
    Stopwatch watch;
    const int step =
        resume_from_checkpoint(ckrt, cfg, shards.master(), walkers, dmc, status);
    if (dmc != nullptr && status.resumed_from_step >= 0)
      reblock();
    status.seconds += watch.elapsed();
    return step;
  }

  /// After the walker vector changed (a branch step, a DMC resume): re-split
  /// the walkers contiguously across the same shards, then rebuild each
  /// crowd's scratch in one team region.
  void reblock()
  {
    for (const ProfileRegistry& p : crowd_profiles)
      status.profile.merge(p);
    crowds = decompose_population(static_cast<int>(walkers.size()), shards.size(), crowd_cap);
    bind_crowds(/*fresh=*/false);
  }

  /// Provenance and counters, per-walker fingerprints of the live walkers,
  /// and every merged profile.
  [[nodiscard]] MiniQMCResult result()
  {
    MiniQMCResult r = status;
    r.num_walkers = static_cast<int>(walkers.size());
    reduce_result(r, walkers);
    for (const ProfileRegistry& p : crowd_profiles)
      r.profile.merge(p);
    return r;
  }

  MiniQMCConfig cfg;
  ShardSystems shards;
  int crowd_cap = 0;
  std::vector<WalkerState> walkers;
  std::vector<CrowdRef> crowds;
  std::vector<std::unique_ptr<CrowdScratch>> scratch; ///< per crowd
  std::vector<ProfileRegistry> crowd_profiles;        ///< per crowd, since the last re-block
  TeamHandle inner = TeamHandle::serial();
  CheckpointRuntime ckrt;
  /// Provenance plus cumulative counters: resume fields, seconds,
  /// checkpoints_written, and the crowd profiles folded in by reblock().
  MiniQMCResult status;

private:
  /// One team region over the crowds: build each walker first when
  /// @p fresh, and build the crowd's scratch on the thread that sweeps it.
  void bind_crowds(bool fresh)
  {
    const auto n = crowds.size();
    scratch.resize(n);
    crowd_profiles.assign(n, ProfileRegistry{});
    team_for(TeamHandle::of(static_cast<int>(n)), static_cast<int>(n), [&](int ci) {
      const CrowdRef& c = crowds[static_cast<std::size_t>(ci)];
      const MiniQMCSystem& ssys = shards[c.shard];
      if (fresh)
        for (int wid = c.first; wid < c.first + c.count; ++wid)
          init_walker(walkers[static_cast<std::size_t>(wid)], ssys, cfg, wid);
      scratch[static_cast<std::size_t>(ci)] =
          std::make_unique<CrowdScratch>(walkers, c.first, c.count, ssys);
    });
  }
};

} // namespace mqc::detail

#endif // MQC_QMC_CROWD_SWEEP_H
