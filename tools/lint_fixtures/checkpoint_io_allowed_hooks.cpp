// Fixture: the sanctioned driver-facing epoch hooks do not trip the rule —
// their implementations (and all file I/O) live in src/qmc/checkpoint.cpp.
// Expected: 0 findings.
#include "qmc/miniqmc_context.h"

int drive(const mqc::detail::CheckpointRuntime& ckrt, const mqc::MiniQMCConfig& cfg,
          mqc::detail::MiniQMCSystem& sys, std::vector<mqc::detail::WalkerState>& walkers,
          mqc::detail::DmcRunState* dmc, mqc::MiniQMCResult& result)
{
  int step = mqc::detail::resume_from_checkpoint(ckrt, cfg, sys, walkers, dmc, result);
  mqc::detail::checkpoint_step_boundary(ckrt, cfg, sys, walkers, dmc, step, cfg.steps, result);
  return step;
}
