#include "measure.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// utime+stime of `pid` in seconds if its parent is `parent`, else -1.
double child_cpu_seconds(const char* pid, pid_t parent) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%s/stat", pid);
  std::FILE* f = std::fopen(path, "r");
  if (!f) return -1;
  char buf[1024];
  std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The command name may hold spaces; the fields resume after its ')'.
  const char* p = std::strrchr(buf, ')');
  if (!p) return -1;
  char state = 0;
  long ppid = 0;
  unsigned long utime = 0, stime = 0;
  int got = std::sscanf(p + 1,
                        " %c %ld %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                        &state, &ppid, &utime, &stime);
  if (got != 4 || ppid != parent) return -1;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

double cpu_seconds_with_children() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  double total = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                     1e6;
  DIR* d = ::opendir("/proc");
  if (!d) return total;
  const pid_t self = ::getpid();
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '1' || e->d_name[0] > '9') continue;
    double c = child_cpu_seconds(e->d_name, self);
    if (c > 0) total += c;
  }
  ::closedir(d);
  return total;
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
