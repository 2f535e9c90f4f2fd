// WalkerPopulation implementation: shard construction over first-touch
// replicas, the resident epoch-chunked crowd sweep, and population
// persistence over the PR 7 checkpoint format.  Every VMC run goes through
// here — run_miniqmc builds a one-shard population.  See walker_population.h
// for the design contract and crowd_sweep.h for the sweep kernel and the
// shard/crowd scaffolding it shares with the DMC driver.
#include "qmc/walker_population.h"

#include <cassert>
#include <vector>

#include "qmc/crowd_sweep.h"

namespace mqc {

using detail::CrowdScratch;
using detail::MiniQMCSystem;
using detail::WalkerState;

struct WalkerPopulation::Impl
{
  explicit Impl(const PopulationConfig& pcfg) : cfg(pcfg.qmc), shards(cfg, pcfg.num_shards) {}

  MiniQMCConfig cfg; ///< population config (qmc knobs; steps/driver unused)
  int step = 0;      ///< the population's Monte Carlo cursor
  detail::ShardSystems shards;

  /// ONE flat walker vector indexed by global walker id: checkpoint
  /// serialization stays one Walker section per id, so snapshots written
  /// under any shard count interoperate and the shard decomposition never
  /// leaks into the on-disk format.
  std::vector<WalkerState> walkers;

  std::vector<detail::CrowdRef> crowds;
  std::vector<std::unique_ptr<CrowdScratch>> scratch; ///< per crowd
  std::vector<ProfileRegistry> crowd_profiles;        ///< per crowd
  TeamHandle inner = TeamHandle::serial();

  detail::CheckpointRuntime ckrt;
  /// Provenance + cumulative counters surfaced through result(): resume
  /// fields are written once at construction; seconds and
  /// checkpoints_written accumulate across run_to_step calls.
  MiniQMCResult status;
};

WalkerPopulation::WalkerPopulation(const PopulationConfig& pcfg)
    : impl_(std::make_unique<Impl>(pcfg))
{
  Impl& im = *impl_;
  const MiniQMCSystem& sys0 = im.shards.master();
  const int nw = sys0.nw;
  const int crowd_cap = detail::resolve_crowd_cap(im.cfg, sys0);
  im.crowds = detail::decompose_population(nw, im.shards.size(), crowd_cap);
  const int num_crowds = static_cast<int>(im.crowds.size());

  // Nested-team partition: one outer member per crowd, each owning an inner
  // team for its facade sweeps and delayed-update flushes (Opt C).
  const ThreadPartition part = detail::resolve_team_partition(im.cfg, sys0, num_crowds);
  im.inner = TeamHandle::inner_of(part);
  im.status = detail::run_provenance(sys0, nw, crowd_cap, part);

  im.walkers.resize(static_cast<std::size_t>(nw));
  im.scratch.resize(static_cast<std::size_t>(num_crowds));
  im.crowd_profiles.resize(static_cast<std::size_t>(num_crowds));

  // MiniQMCResult::seconds spans the walker build and the resume as well as
  // the sweeps (set-up = wall time - seconds leaves only the system build).
  Stopwatch watch;

  // ---- walker init: one crowd per team member, on its shard's system -----
  // Same region shape as every later epoch (a team_for over crowd ids), so
  // the region-bound walker teams stay contract-valid, and the static
  // schedule keeps the crowd->thread map stable: CrowdScratch is built here,
  // ONCE per crowd, first-touched on the thread that sweeps it.  Walker
  // state is a function of (config, walker id) only — the shard system
  // passed here only changes WHERE the orbital table is read from.
  team_for(TeamHandle::of(num_crowds), num_crowds, [&](int ci) {
    const detail::CrowdRef& c = im.crowds[static_cast<std::size_t>(ci)];
    const MiniQMCSystem& ssys = im.shards[c.shard];
    for (int wid = c.first; wid < c.first + c.count; ++wid) {
      detail::init_walker(im.walkers[static_cast<std::size_t>(wid)], ssys, im.cfg, wid);
      im.walkers[static_cast<std::size_t>(wid)].set_team(im.inner.bound_to_current_region());
    }
    im.scratch[static_cast<std::size_t>(ci)] =
        std::make_unique<CrowdScratch>(im.walkers, c.first, c.count, ssys);
  });

  // ---- resume (outside any team region) ----------------------------------
  // The config hash and the Walker sections are shard- and driver-free, so a
  // snapshot written under any shard count or crowd size restores here.
  im.ckrt = detail::make_checkpoint_runtime(im.cfg, sys0);
  im.step = detail::resume_from_checkpoint(im.ckrt, im.cfg, sys0, im.walkers, im.status);
  im.status.seconds = watch.elapsed();
}

WalkerPopulation::~WalkerPopulation() = default;

int WalkerPopulation::num_shards() const noexcept { return impl_->shards.size(); }

int WalkerPopulation::num_walkers() const noexcept
{
  return static_cast<int>(impl_->walkers.size());
}

int WalkerPopulation::current_step() const noexcept { return impl_->step; }

void WalkerPopulation::run_to_step(int target_step)
{
  Impl& im = *impl_;
  const MiniQMCSystem& sys0 = im.shards.master();
  const int num_crowds = static_cast<int>(im.crowds.size());

  // Snapshot points sit between team regions: no facade evaluation may own
  // a crowd's resource there, or the snapshot would capture scratch
  // mid-flight.
  auto boundary = [&](int steps) {
#ifdef MQC_CONTRACTS
    for (const auto& scr : im.scratch)
      mqc_contract(!scr->ores.contract_live,
                   "checkpoint at step %d taken while an OrbitalResource is live", im.step);
#endif
    detail::checkpoint_step_boundary(im.ckrt, im.cfg, sys0, im.walkers, im.step, steps,
                                     im.status);
  };

  Stopwatch watch;
  const int entry_step = im.step;
  while (im.step < target_step) {
    const int next = detail::next_epoch_boundary(im.ckrt, im.step, target_step);
    team_for(TeamHandle::of(num_crowds), num_crowds, [&](int ci) {
      const detail::CrowdRef& c = im.crowds[static_cast<std::size_t>(ci)];
      detail::crowd_sweep_steps(im.shards[c.shard], im.cfg, im.walkers, c.first, c.count,
                                *im.scratch[static_cast<std::size_t>(ci)],
                                im.crowd_profiles[static_cast<std::size_t>(ci)], im.inner,
                                im.step, next);
    });
    im.step = next;
    boundary(target_step);
  }
  // A call that swept nothing (already at/past the target) still leaves a
  // snapshot when a checkpoint path is set, so the resident state on disk
  // always matches the cursor.  Passing the cursor as the budget makes this
  // a pure final write (the abort fault requires step < steps).
  if (entry_step >= target_step)
    boundary(im.step);
  im.status.seconds += watch.elapsed();
}

void WalkerPopulation::run_steps(int steps) { run_to_step(impl_->step + steps); }

MiniQMCResult WalkerPopulation::result()
{
  Impl& im = *impl_;
  // Rebuild the aggregate from scratch on every call (walker profiles and
  // counters are cumulative, so reducing into a fresh copy of the
  // provenance-carrying status is idempotent).
  MiniQMCResult r = im.status;
  detail::reduce_result(r, im.walkers);
  for (const auto& p : im.crowd_profiles)
    r.profile.merge(p);
  return r;
}

detail::MiniQMCSystem& WalkerPopulation::shard_system_internal(int shard) const
{
  assert(shard >= 0 && shard < impl_->shards.size());
  return impl_->shards[shard];
}

const MiniQMCConfig& WalkerPopulation::config_internal() const noexcept { return impl_->cfg; }

} // namespace mqc
