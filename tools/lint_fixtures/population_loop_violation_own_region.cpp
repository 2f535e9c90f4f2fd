// Fixture: a driver that opens its own team region and sweeps its crowds
// directly, instead of through its population's sweep(), is flagged.
// Expected: 1 [population-loop] finding (the call, not the definition).
struct Crowd
{
  int first = 0, count = 0;
};

inline void crowd_sweep_steps(Crowd&, int, int) {}

void my_generation_loop(Crowd* crowds, int n, int gen_steps)
{
  for (int ci = 0; ci < n; ++ci)
    crowd_sweep_steps(crowds[ci], 0, gen_steps);
}
