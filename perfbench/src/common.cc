#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

void Report::Op(const fexiot::Status& status, const char* what) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
