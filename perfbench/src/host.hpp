// Provenance of a benchmark record: core count, CPU model, compiler and
// build type, all determined by the binary itself (the CPU model from the
// processor's brand string, the build type from the optimisation macros it
// was compiled with), so a record cannot claim a build it did not come from.
#pragma once

#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

struct Provenance {
  unsigned cores = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;  // "release" or "debug"
  bool release = false;
};

inline std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

inline Provenance provenance() {
  Provenance p;
  p.cores = std::thread::hardware_concurrency();
  p.cpu_model = cpu_brand();
#if defined(__clang__)
  p.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  p.release = true;
  p.build_type = "release";
#else
  p.build_type = "debug";
#endif
  return p;
}

/// One-line JSON object of `p` (the strings hold no quotes or backslashes:
/// brand strings and compiler versions are plain ASCII words).
inline std::string provenance_json(const Provenance& p) {
  return "{\"cores\": " + std::to_string(p.cores) + ", \"cpu_model\": \"" + p.cpu_model +
         "\", \"compiler\": \"" + p.compiler + "\", \"build_type\": \"" + p.build_type + "\"}";
}

}  // namespace perfbench
