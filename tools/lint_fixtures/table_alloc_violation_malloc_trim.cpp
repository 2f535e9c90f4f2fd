// Fixture: a driver that trims the heap itself, outside the table allocator's
// release_free_heap(), is flagged.
// Expected: 1 [table-alloc] finding.
#include <malloc.h>

struct Result
{
  double energy = 0.0;
};

Result run_and_trim()
{
  Result r;
  malloc_trim(0);
  return r;
}
