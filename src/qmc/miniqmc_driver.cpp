#include "qmc/miniqmc_driver.h"

#include "core/table_memory.h"
#include "qmc/miniqmc_context.h"
#include "qmc/walker_population.h"

namespace mqc {

namespace {

MiniQMCResult run_vmc(const MiniQMCConfig& cfg)
{
  // Every VMC run is a one-shard resident population advanced to cfg.steps
  // through the one crowd sweep; the per-walker driver is crowds of one.
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  if (cfg.driver == DriverMode::PerWalker)
    pcfg.qmc.crowd_size = 1;
  pcfg.num_shards = 1;
  WalkerPopulation pop(pcfg);
  pop.run_to_step(cfg.steps);
  return pop.result();
}

} // namespace

MiniQMCResult run_miniqmc(const MiniQMCConfig& cfg)
{
  MiniQMCResult result =
      cfg.driver == DriverMode::DMC ? detail::run_miniqmc_dmc(cfg) : run_vmc(cfg);
  // The population (and the DMC driver) is gone: return its freed walker
  // pages, so a caller that keeps every result does not grow its heap.
  release_free_heap();
  return result;
}

} // namespace mqc
