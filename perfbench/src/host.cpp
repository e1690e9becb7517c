#include "host.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::vector<int> thread_ids() {
  std::vector<int> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    out.push_back(std::stoi(e.path().filename().string()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

std::int64_t process_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double rss_mb() {
  std::ifstream in("/proc/self/statm");
  long size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t udp_rcvbuf_errors() {
  // Two "Udp:" lines: a header naming the fields, then their values.
  std::ifstream in("/proc/net/snmp");
  std::string line, header;
  while (std::getline(in, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
      continue;
    }
    std::istringstream names(header), values(line);
    std::string name, value;
    while (names >> name && values >> value) {
      if (name == "RcvbufErrors") return std::stoull(value);
    }
    return 0;
  }
  return 0;
}

}  // namespace perfbench
