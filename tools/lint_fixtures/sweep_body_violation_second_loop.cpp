// Fixture: a driver that re-implements the move/measure loop is flagged.
// Expected: >= 3 [sweep-body] findings (the three calls, not the definitions).
struct Walker
{
};

inline void metropolis_move(Walker&, int) {}
inline void quadrature_dist_jastrow(Walker&, int) {}
inline void full_jastrow(Walker&) {}

void my_driver_loop(Walker& w, int nel)
{
  for (int e = 0; e < nel; ++e)
    metropolis_move(w, e);
  for (int e = 0; e < nel; ++e)
    quadrature_dist_jastrow(w, e);
  full_jastrow(w);
}
