#ifndef COMOVE_COMMON_CPU_FEATURES_H_
#define COMOVE_COMMON_CPU_FEATURES_H_

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define COMOVE_CPU_FEATURES_X86 1
#endif

/// \file
/// Runtime CPU feature detection for the SIMD kernel dispatch. Detection
/// runs once per process (cpuid is a serialising instruction; callers sit
/// on hot paths). The scalar reference path is pinned per call with
/// SimdLevel::kScalar, or for a whole build with -DCOMOVE_DISABLE_AVX2=ON.

namespace comove {

/// Which kernel implementation the join should use. kScalar pins the
/// reference path so tests can exercise both in one process; kAvx2 asks
/// for the best available level - AVX2 when it is compiled in and the CPU
/// supports it, scalar otherwise.
enum class SimdLevel : std::uint8_t {
  kScalar,
  kAvx2,
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

struct CpuFeatures {
  /// CPU advertises AVX2 and the OS saves the YMM register state.
  bool avx2 = false;
};

namespace internal {

inline CpuFeatures DetectCpuFeatures() {
  CpuFeatures features;
#if defined(COMOVE_CPU_FEATURES_X86)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // AVX2 itself: leaf 7 subleaf 0, EBX bit 5.
  const bool cpu_avx2 =
      __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) && (ebx & (1u << 5));
  // Using YMM registers also needs the OS to context-switch them: OSXSAVE
  // (leaf 1 ECX bit 27) plus XCR0 bits 1|2 (XMM|YMM state enabled).
  bool os_ymm = false;
  if (cpu_avx2 && __get_cpuid(1, &eax, &ebx, &ecx, &edx) &&
      (ecx & (1u << 27))) {
    std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    os_ymm = (xcr0_lo & 0x6) == 0x6;
  }
  features.avx2 = cpu_avx2 && os_ymm;
#endif
  return features;
}

}  // namespace internal

/// The process-wide feature set, detected on first use.
inline const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = internal::DetectCpuFeatures();
  return features;
}

}  // namespace comove

#endif  // COMOVE_COMMON_CPU_FEATURES_H_
