// The audited table allocator (see table_memory.h).
#include "core/table_memory.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include "common/config.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mqc {

namespace {

std::atomic<std::size_t> g_live_bytes{0};

/// Length of the mapping behind a table of @p bytes: whole 2 MiB pages.
std::size_t mapping_length(std::size_t bytes)
{
  return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

/// A 2 MiB-aligned anonymous mapping of @p len bytes (a multiple of
/// kHugePageBytes): over-map by one huge page, trim the unaligned head and
/// the tail, then advise the rest onto huge pages.
void* map_huge_aligned(std::size_t len)
{
  const std::size_t span = len + kHugePageBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED)
    throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::size_t head = aligned - base;
  if (head > 0)
    ::munmap(raw, head);
  ::munmap(reinterpret_cast<void*>(aligned + len), span - head - len);
  // Advice only: a host without THP keeps 4 KiB pages, same bytes.
  (void)::madvise(reinterpret_cast<void*>(aligned), len, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(aligned);
}

} // namespace

TableBlock::TableBlock(std::size_t count, std::size_t elem_size)
{
  if (elem_size != 0 && count > std::numeric_limits<std::size_t>::max() / elem_size)
    throw std::bad_alloc();
  const std::size_t bytes = count * elem_size;
  if (bytes == 0)
    return;
  if (bytes >= kHugePageBytes) {
    if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePageBytes)
      throw std::bad_alloc();
    ptr_ = map_huge_aligned(mapping_length(bytes));
  } else {
    ptr_ = std::aligned_alloc(kAlignment, aligned_bytes(bytes));
    if (ptr_ == nullptr)
      throw std::bad_alloc();
    std::memset(ptr_, 0, bytes);
  }
  bytes_ = bytes;
  g_live_bytes.fetch_add(bytes_, std::memory_order_relaxed);
}

TableBlock::TableBlock(const TableBlock& other) : TableBlock(other.bytes_, 1)
{
  if (bytes_ > 0)
    std::memcpy(ptr_, other.ptr_, bytes_);
}

TableBlock& TableBlock::operator=(const TableBlock& other)
{
  if (this != &other)
    *this = TableBlock(other);
  return *this;
}

TableBlock::TableBlock(TableBlock&& other) noexcept
    : ptr_(std::exchange(other.ptr_, nullptr)), bytes_(std::exchange(other.bytes_, 0))
{
}

TableBlock& TableBlock::operator=(TableBlock&& other) noexcept
{
  if (this != &other) {
    release();
    ptr_ = std::exchange(other.ptr_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

TableBlock::~TableBlock() { release(); }

void TableBlock::release() noexcept
{
  if (ptr_ == nullptr)
    return;
  g_live_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
  if (mapped())
    ::munmap(ptr_, mapping_length(bytes_));
  else
    std::free(ptr_);
  ptr_ = nullptr;
  bytes_ = 0;
}

std::size_t live_table_bytes() noexcept { return g_live_bytes.load(std::memory_order_relaxed); }

void release_free_heap() noexcept
{
#if defined(__GLIBC__)
  (void)::malloc_trim(0);
#endif
}

} // namespace mqc
