#include "common/host_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace colsgd {

std::vector<double> ModelArray(size_t n) {
  std::vector<double> array;
  const size_t bytes = n * sizeof(double);
  if (bytes >= kHugePageBytes) {
    array.reserve(n);
    // madvise takes page-aligned ranges: the pages wholly inside the buffer.
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t data = reinterpret_cast<uintptr_t>(array.data());
    const uintptr_t begin = (data + page - 1) & ~(page - 1);
    const uintptr_t end = (data + bytes) & ~(page - 1);
    // A refusal (no THP in this kernel) leaves ordinary pages; nothing to do.
    (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
  array.resize(n);
  return array;
}

}  // namespace colsgd
