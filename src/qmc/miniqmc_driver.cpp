#include "qmc/miniqmc_driver.h"

#include "qmc/miniqmc_context.h"
#include "qmc/walker_population.h"

namespace mqc {

MiniQMCResult run_miniqmc(const MiniQMCConfig& cfg)
{
  if (cfg.driver == DriverMode::DMC)
    return detail::run_miniqmc_dmc(cfg);
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

} // namespace mqc
