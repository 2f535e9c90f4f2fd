// Fixture: definitions are not calls, mentions in comments are ignored, and a
// deliberately annotated call is silenced.
// Expected: 0 [sweep-body] findings.
struct Walker
{
};

inline void metropolis_move(Walker&, int) {}
inline void full_jastrow(Walker&) {}

// A reference check may price one move outside the sweep: metropolis_move(w, 0)
void reference_check(Walker& w)
{
  // mqc-lint: allow(sweep-body)
  metropolis_move(w, 0);
  full_jastrow(w); // mqc-lint: allow(sweep-body)
}
