// Coefficient-table memory: the one allocator every CoefStorage buffer comes
// from.  The table is the memory wall of the orbital evaluation (paper §IV),
// so how its pages are placed and backed is part of the kernel.
//
//   * A table of kHugePageBytes (2 MiB) or more is an anonymous mapping,
//     2 MiB aligned, rounded up to whole 2 MiB pages and advised
//     MADV_HUGEPAGE, so the kernel can back it with transparent huge pages.
//     Fresh anonymous pages read zero: no zero-fill pass runs, and the first
//     write is the first touch, on the writing thread.  With THP in `never`
//     mode, or when madvise fails, the same mapping stays on 4 KiB pages.
//   * A smaller table is a 64-byte aligned heap block, zero-filled.
//
// Either way every row P[i][j][k] stays 64-byte aligned and the bytes read
// zero until written.  The `table-alloc` lint rule keeps mmap, munmap,
// madvise, aligned_alloc, posix_memalign and malloc_trim inside
// table_memory.cpp and common/aligned_allocator.h.
#ifndef MQC_CORE_TABLE_MEMORY_H
#define MQC_CORE_TABLE_MEMORY_H

#include <cstddef>

namespace mqc {

/// Tables at least this large are mapped on 2 MiB boundaries and advised
/// onto transparent huge pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// An owning block of zero-initialised table memory.
class TableBlock
{
public:
  TableBlock() noexcept = default;
  /// @p count elements of @p elem_size bytes, all zero.  Throws
  /// std::bad_alloc when count * elem_size overflows (before anything is
  /// allocated) or when memory runs out.
  TableBlock(std::size_t count, std::size_t elem_size);
  /// Same size and path; the calling thread writes (first-touches) the copy.
  TableBlock(const TableBlock& other);
  TableBlock& operator=(const TableBlock& other);
  TableBlock(TableBlock&& other) noexcept;
  TableBlock& operator=(TableBlock&& other) noexcept;
  ~TableBlock();

  [[nodiscard]] void* data() const noexcept { return ptr_; }
  /// Logical size: count * elem_size, not the rounded mapping length.
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_; }
  /// True for a 2 MiB-aligned mapping advised onto huge pages.
  [[nodiscard]] bool mapped() const noexcept { return bytes_ >= kHugePageBytes; }

private:
  void release() noexcept;

  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Logical bytes of every live TableBlock in the process: what the tables
/// pin, whichever engine or replica holds them.
[[nodiscard]] std::size_t live_table_bytes() noexcept;

/// Give the heap's free pages back to the operating system (glibc
/// malloc_trim; a no-op elsewhere).  run_miniqmc calls it once its walkers
/// are gone: they are built on the calling thread, so their few MB of
/// buffers churn through the caller's heap between the allocations the
/// caller keeps, and without a trim the heap fragments and the resident set
/// grows with every call.
void release_free_heap() noexcept;

} // namespace mqc

#endif // MQC_CORE_TABLE_MEMORY_H
