// Facts about the machine and the process the result records: CPUs and
// pinning, CPU model, process CPU time, RSS, and the kernel's UDP
// receive-buffer drop counter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();
/// Pins the calling thread to `cpus`; threads it creates later inherit it.
bool pin_current_thread(const std::vector<int>& cpus);
/// Kernel ids of this process's threads (/proc/self/task), ascending.
std::vector<int> thread_ids();
/// Pins thread `tid` of this process to one CPU.
bool pin_thread(int tid, int cpu);

std::string cpu_model();
std::int64_t process_cpu_ns();
double rss_mb();
/// Udp RcvbufErrors from /proc/net/snmp (0 when unreadable).
std::uint64_t udp_rcvbuf_errors();

}  // namespace perfbench
