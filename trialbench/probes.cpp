#include "probes.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>

namespace trialbench {

std::int64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int got = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

std::int64_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace trialbench
