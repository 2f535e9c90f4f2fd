// WalkerPopulation implementation: the resident epoch-chunked crowd sweep
// over the population core (crowd_sweep.h PopulationCore, which also holds
// the shard systems, the crowd split, the walkers and their persistence).
// Every VMC run goes through here — run_miniqmc builds a one-shard
// population.  See walker_population.h for the design contract.
#include "qmc/walker_population.h"

#include <cassert>

#include "qmc/crowd_sweep.h"

namespace mqc {

WalkerPopulation::WalkerPopulation(const PopulationConfig& pcfg)
    : core_(std::make_unique<detail::PopulationCore>(pcfg.qmc, pcfg.num_shards))
{
  step_ = core_->resume();
}

WalkerPopulation::~WalkerPopulation() = default;

int WalkerPopulation::num_shards() const noexcept { return core_->shards.size(); }

std::size_t WalkerPopulation::coef_table_bytes() const noexcept
{
  return core_->shards.replicas.total_replica_bytes();
}

int WalkerPopulation::num_walkers() const noexcept
{
  return static_cast<int>(core_->walkers.size());
}

int WalkerPopulation::current_step() const noexcept { return step_; }

void WalkerPopulation::run_to_step(int target_step)
{
  detail::PopulationCore& pop = *core_;
  Stopwatch watch;
  const int entry_step = step_;
  while (step_ < target_step) {
    const int next = detail::next_epoch_boundary(pop.ckrt, step_, target_step);
    pop.sweep(step_, next);
    step_ = next;
    pop.boundary(step_, target_step);
  }
  // A call that swept nothing (already at/past the target) still leaves a
  // snapshot when a checkpoint path is set, so the resident state on disk
  // always matches the cursor.  Passing the cursor as the budget makes this
  // a pure final write (the abort fault requires step < steps).
  if (entry_step >= target_step)
    pop.boundary(step_, step_);
  pop.status.seconds += watch.elapsed();
}

void WalkerPopulation::run_steps(int steps) { run_to_step(step_ + steps); }

MiniQMCResult WalkerPopulation::result() { return core_->result(); }

detail::MiniQMCSystem& WalkerPopulation::shard_system_internal(int shard) const
{
  assert(shard >= 0 && shard < core_->shards.size());
  return core_->shards[shard];
}

const MiniQMCConfig& WalkerPopulation::config_internal() const noexcept { return core_->cfg; }

} // namespace mqc
