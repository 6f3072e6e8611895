// Host storage for model-sized arrays. The row engines read and write a
// model of hundreds of MiB at random (5.4M features x 11 slots on
// ps-fm-kdd12), so on 4 KiB pages nearly every access also misses the TLB;
// a 2 MiB page covers 512 times the range per TLB entry (DESIGN.md §18).
#ifndef COLSGD_COMMON_HOST_MEMORY_H_
#define COLSGD_COMMON_HOST_MEMORY_H_

#include <cstddef>
#include <vector>

namespace colsgd {

/// \brief Size of a transparent huge page, and the smallest array
/// ModelArray asks huge pages for.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// \brief `n` zeros, for a model-sized host array (weights, optimizer
/// state, snapshots). An array of at least kHugePageBytes asks the kernel
/// for transparent huge pages (madvise(MADV_HUGEPAGE) over the whole pages
/// inside it) before the zero-fill first touches it; advice given after the
/// first touch waits for khugepaged. It is advice only: where the kernel
/// has no THP or ignores it, the array sits on ordinary pages, with the
/// same contents either way.
std::vector<double> ModelArray(size_t n);

}  // namespace colsgd

#endif  // COLSGD_COMMON_HOST_MEMORY_H_
