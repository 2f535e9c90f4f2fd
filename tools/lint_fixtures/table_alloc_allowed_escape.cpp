// Fixture: mentions in comments and strings are ignored, aligned_allocator
// is a different word, and a deliberately annotated call is silenced.
// Expected: 0 [table-alloc] findings.
#include <sys/mman.h>

#include <vector>

template <typename T>
struct aligned_allocator
{
};

// A scratch arena could mmap its pages; tables must not (see table_memory.h).
const char* kWhy = "tables come from the one madvise(MADV_HUGEPAGE) allocator";

std::vector<float, aligned_allocator<float>>* rows = nullptr;

void* guard_page(std::size_t bytes)
{
  // mqc-lint: allow(table-alloc)
  return mmap(nullptr, bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}
