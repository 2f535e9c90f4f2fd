// The graphite system shared by vmc_graphite and job_service: the paper's
// section VII miniQMC configuration, with everything it does not name left
// at the library's defaults.
#ifndef PERFBENCH_GRAPHITE_H
#define PERFBENCH_GRAPHITE_H

#include <cstdint>

#include "bench.h"
#include "qmc/miniqmc_driver.h"

namespace perfbench {

/// Graphite 4x4x1 (256 electrons, 128 orbitals) on the 48^3 grid, AoSoA
/// engine, optimized distance tables and Jastrow, crowd driver with 8
/// walkers in crowds of 2 (exactly 4 crowds).
inline mqc::MiniQMCConfig graphite_config(std::uint64_t seed)
{
  mqc::MiniQMCConfig cfg;
  cfg.supercell = {4, 4, 1};
  cfg.grid_size = 48;
  cfg.spo = mqc::SpoLayout::AoSoA;
  cfg.optimized_dt_jastrow = true;
  cfg.driver = mqc::DriverMode::Crowd;
  cfg.num_walkers = 8;
  cfg.crowd_size = 2;
  cfg.seed = seed;
  return cfg;
}

/// Record the decisions a driver result surfaces.
inline void record_paths(Report& rep, const mqc::MiniQMCResult& r)
{
  rep.record("spline_path",
             r.spline_path == mqc::EvalPath::MultiPosition ? "multi-position" : "single-position");
  rep.record("precision_path", mqc::precision_path_name(r.precision_path));
  rep.record("team_path", mqc::team_path_name(r.team_path));
  rep.record("outer_x_inner", fmt("%dx%d", r.outer_threads_used, r.inner_threads_used));
  rep.record("crowd_size_used", r.crowd_size_used);
}

} // namespace perfbench

#endif // PERFBENCH_GRAPHITE_H
