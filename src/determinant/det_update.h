// The drivers' determinant engine: Sherman-Morrison after every accepted move
// (DiracDeterminant, paper Eqs. 3-4), under the name the walkers hold.
//
// MiniQMCConfig::delay_rank >= 2 selected a delayed rank-k engine (McDaniel
// et al.) that no workload ran and that did not beat Sherman-Morrison at the
// workloads' N = 128; it was removed, so check_delay_rank refuses k >= 2.
// k <= 1 is Sherman-Morrison, as it always was.
#ifndef MQC_DETERMINANT_DET_UPDATE_H
#define MQC_DETERMINANT_DET_UPDATE_H

#include <stdexcept>
#include <string>

#include "determinant/dirac_determinant.h"

namespace mqc {

/// Throw std::invalid_argument, naming the value, for @p delay_rank >= 2.
inline void check_delay_rank(int delay_rank)
{
  if (delay_rank >= 2)
    throw std::invalid_argument("delay_rank = " + std::to_string(delay_rank) +
                                ": delayed determinant updates were removed; use 0 or 1 "
                                "(Sherman-Morrison)");
}

class DetUpdater : public DiracDeterminant
{
public:
  DetUpdater() = default;
  explicit DetUpdater(int delay_rank) { check_delay_rank(delay_rank); }
};

} // namespace mqc

#endif // MQC_DETERMINANT_DET_UPDATE_H
