// Fixture: a buffer that maps, advises and aligns its own pages is flagged.
// Expected: 5 [table-alloc] findings, one per call.
#include <sys/mman.h>

#include <cstdlib>

float* make_table(std::size_t bytes)
{
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  madvise(p, bytes, MADV_HUGEPAGE);
  return static_cast<float*>(p);
}

void drop_table(float* p, std::size_t bytes) { munmap(p, bytes); }

float* make_row(std::size_t bytes)
{
  void* p = nullptr;
  if (posix_memalign(&p, 64, bytes) != 0)
    return static_cast<float*>(std::aligned_alloc(64, bytes));
  return static_cast<float*>(p);
}
