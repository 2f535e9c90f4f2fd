// Fixture: the definition is not a call, mentions in comments are ignored,
// and a deliberately annotated call is silenced.
// Expected: 0 [population-loop] findings.
struct Crowd
{
};

inline void crowd_sweep_steps(Crowd&, int, int) {}

// A reference check may sweep one crowd by hand: crowd_sweep_steps(c, 0, 1)
void reference_check(Crowd& c)
{
  // mqc-lint: allow(population-loop)
  crowd_sweep_steps(c, 0, 1);
}
