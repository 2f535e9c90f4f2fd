// Table I analogue: the host's system configuration row, including measured
// STREAM bandwidth and FMA peak — the two ceilings every other bench and the
// roofline analysis are interpreted against — plus the coefficient-table
// footprint the facade reports per precision path (the resident allocation
// the SP/mixed storage halves relative to a DP build).
#include <iostream>

#include "common/sysinfo.h"
#include "common/table.h"
#include "common/threading.h"
#include "core/bspline_soa.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "core/tuner.h"
#include "perf/roofline.h"

int main()
{
  using namespace mqc;
  print_banner(std::cout, "Table I (host column): system configuration");
  const SystemInfo info = query_system_info();
  print_system_info(std::cout, info);
  // The AoSoA tile default derived from the L1 row above (core/tuner.h).
  std::cout << "SMT threads/core  " << machine_topology().smt << '\n'
            << "default Nb float  " << host_tile_size<float>() << '\n'
            << "default Nb double " << host_tile_size<double>() << '\n';

  std::cout << "measuring STREAM triad bandwidth and FMA peak...\n";
  const double bw = measure_triad_bandwidth();
  const double peak = measure_peak_gflops_sp();
  std::cout << "Stream BW (GB/s)  " << TablePrinter::cell(bw / 1e9, 1) << '\n'
            << "SP peak (GFLOPS)  " << TablePrinter::cell(peak, 1) << '\n';
  std::cout << "\nPaper reference (Table I): BDW 64 GB/s, KNC 177 GB/s, KNL 490 GB/s, "
               "BG/Q 28 GB/s\n";

  // Coefficient-table footprint per precision path, as the OrbitalSet facade
  // reports it (capabilities().coef_table_bytes) at a representative size.
  // The mixed path reads the SAME float table as the SP row — its saving is
  // the DP-vs-SP storage gap, not a third allocation.
  {
    const int n = 512, ng = 32;
    const auto table_dp = make_random_storage<double>(Grid3D<double>::cube(ng, 1.0), n, 11);
    const auto table_sp = convert_storage<float>(*table_dp);
    const BsplineSoA<double> eng_dp(table_dp);
    const BsplineSoA<float> eng_sp(table_sp);
    const BsplineSoA<float, double> eng_mx(table_sp);
    const OrbitalSet<double> set_dp(eng_dp);
    const OrbitalSet<float> set_sp(eng_sp);
    const OrbitalSet<float> set_mx(eng_mx);
    TablePrinter tp({"precision path", "coef_table_bytes", "MB"});
    tp.add_row({"double (native)", TablePrinter::cell(static_cast<double>(
                                       set_dp.capabilities().coef_table_bytes), 0),
                TablePrinter::cell(set_dp.capabilities().coef_table_bytes / 1e6, 1)});
    tp.add_row({"float (native)", TablePrinter::cell(static_cast<double>(
                                      set_sp.capabilities().coef_table_bytes), 0),
                TablePrinter::cell(set_sp.capabilities().coef_table_bytes / 1e6, 1)});
    tp.add_row({"float (mixed)", TablePrinter::cell(static_cast<double>(
                                     set_mx.capabilities().coef_table_bytes), 0),
                TablePrinter::cell(set_mx.capabilities().coef_table_bytes / 1e6, 1)});
    std::cout << "\ncoefficient-table footprint (SoA engine, N=" << n << ", grid " << ng
              << "^3):\n";
    tp.print(std::cout);
  }
  return 0;
}
