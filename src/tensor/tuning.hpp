// Cache-geometry detection and the one-line GEMM summary benches record.
//
// The GEMM driver (gemm.cpp) runs one MR x NR microkernel per ISA at a fixed
// packed depth kc = 256; nothing is selected at run time. The cache geometry
// is still detected because a stored kernel baseline is only comparable to a
// run on the same cache sizes (scripts/check_bench_regression.py keys its
// gate on them).
#pragma once

#include <cstddef>
#include <string>

namespace tcb {

struct CacheGeometry {
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  bool detected = false;  ///< false = the conservative fallback above
  [[nodiscard]] std::string to_string() const;
};

/// The host's cache geometry, detected once per process from sysfs.
[[nodiscard]] const CacheGeometry& cache_geometry();

/// One-line summary of the geometry and the GEMM kernel for bench metadata,
/// e.g. "l1d=48KiB l2=2048KiB avx512_8x32/kc256". Defined in gemm.cpp,
/// which owns the kernel.
[[nodiscard]] std::string gemm_tuning_summary();

}  // namespace tcb
