#include "generator.hpp"

#include <arpa/inet.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <thread>
#include <tuple>

#include "analysis.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSlots = 65536;  // one per transaction id
constexpr std::size_t kMaxQuery = 512;
constexpr std::size_t kMaxAnswer = 4096;
/// Datagrams per sendmmsg / recvmmsg call.
constexpr std::size_t kBatch = 32;
/// After the send window: how long stragglers may still arrive.
constexpr std::int64_t kDrainNs = 200'000'000;
/// Latency samples are tagged with the window they arrive in (see
/// windowed_quantile).
constexpr std::int64_t kWindowNs = 250'000'000;
/// Interval of the outstanding-query samples (see backlog_marks).
constexpr std::int64_t kSampleNs = 25'000'000;

enum SlotKind : std::uint8_t { kLoad = 0, kProbeFront = 1, kProbeDirect = 2 };

struct Slot {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::uint32_t entry = 0;
  std::uint8_t live = 0;
  std::uint8_t kind = kLoad;
};

std::int64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void pin_self(int core) {
  if (core < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

bool same_answer(std::span<const std::uint8_t> response, std::span<const std::uint8_t> expected) {
  return response.size() == expected.size() && response.size() >= 2 &&
         std::memcmp(response.data() + 2, expected.data() + 2, response.size() - 2) == 0;
}

Verdict StaticVerifier::check(std::size_t, std::uint32_t entry,
                              std::span<const std::uint8_t> response, std::int64_t) {
  const auto expected = expected_.at(entry);
  if (same_answer(response, expected)) return Verdict::Ok;
  return is_servfail(response) ? Verdict::ServFail : Verdict::Mismatch;
}

int open_client_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int buf = 1 << 22;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  const sockaddr_in a = loopback(0);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  return a;
}

void StepStats::merge(StepStats&& o) {
  sent_legit += o.sent_legit;
  sent_attack += o.sent_attack;
  ok_legit += o.ok_legit;
  ok_attack += o.ok_attack;
  dropped_legit += o.dropped_legit;
  dropped_attack += o.dropped_attack;
  mismatched_legit += o.mismatched_legit;
  mismatched_attack += o.mismatched_attack;
  servfail_legit += o.servfail_legit;
  stale_legit += o.stale_legit;
  unexpected += o.unexpected;
  send_errors += o.send_errors;
  if (outstanding_samples.size() < o.outstanding_samples.size()) {
    outstanding_samples.resize(o.outstanding_samples.size(), 0);
  }
  for (std::size_t i = 0; i < o.outstanding_samples.size(); ++i) {
    outstanding_samples[i] += o.outstanding_samples[i];
  }
  gen_cpu_ns += o.gen_cpu_ns;
  wall_ns = std::max(wall_ns, o.wall_ns);
  latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  latency_window.insert(latency_window.end(), o.latency_window.begin(), o.latency_window.end());
  lateness_us.insert(lateness_us.end(), o.lateness_us.begin(), o.lateness_us.end());
  probe_front_us.insert(probe_front_us.end(), o.probe_front_us.begin(), o.probe_front_us.end());
  probe_direct_us.insert(probe_direct_us.end(), o.probe_direct_us.begin(),
                         o.probe_direct_us.end());
  per_flow_sent.insert(per_flow_sent.end(), o.per_flow_sent.begin(), o.per_flow_sent.end());
}

/// Per-flow state that persists across steps: the txid cursor and the
/// in-flight table, plus send scratch for one batch.
struct Generator::FlowState {
  std::vector<Slot> slots = std::vector<Slot>(kSlots);
  std::uint16_t next_id = 0;
  std::vector<std::array<std::uint8_t, kMaxQuery>> tx_buf;
  std::vector<iovec> tx_iov;
  std::vector<mmsghdr> tx_hdr;
  std::size_t pending = 0;
};

Generator::Generator(GenConfig config) : config_(std::move(config)) {
  for (const auto& flows : config_.flows) {
    state_.emplace_back();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      auto st = std::make_unique<FlowState>();
      st->tx_buf.resize(kBatch + 1);
      st->tx_iov.resize(kBatch + 1);
      st->tx_hdr.resize(kBatch + 1);
      state_.back().push_back(std::move(st));
    }
  }
}

Generator::~Generator() = default;

StepStats Generator::run(const StepSpec& spec,
                         const std::function<void(std::int64_t)>& side) {
  const std::uint64_t step = steps_++;
  const std::int64_t end_ns = mono_ns() + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::size_t threads = config_.flows.size();
  std::vector<StepStats> parts(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([this, t, &spec, step, &parts] { parts[t] = run_thread(t, spec, step); });
  }
  if (side) side(end_ns);
  for (auto& th : pool) th.join();
  StepStats out;
  out.rate_qps = spec.rate_qps;
  out.seconds = spec.seconds;
  for (auto& p : parts) out.merge(std::move(p));
  std::tie(out.outstanding_mid, out.outstanding_end) = backlog_marks(out.outstanding_samples);
  return out;
}

StepStats Generator::run_thread(std::size_t t, const StepSpec& spec, std::uint64_t step) {
  pin_self(t < config_.cores.size() ? config_.cores[t] : -1);
  const auto& flows = config_.flows[t];
  auto& states = state_[t];
  const std::size_t nf = flows.size();
  std::size_t flow_base = 0;
  for (std::size_t i = 0; i < t; ++i) flow_base += config_.flows[i].size();

  const Arena& corpus = *config_.corpus;
  const auto& attack = *config_.is_attack;
    const double thread_rate = spec.rate_qps / static_cast<double>(config_.flows.size());

  StepStats st;
  st.per_flow_sent.assign(nf, 0);
  if (spec.keep_samples) {
    const auto expect = static_cast<std::size_t>(thread_rate * spec.seconds * 1.05) + 64;
    st.latency_us.reserve(expect);
    st.latency_window.reserve(expect);
    st.lateness_us.reserve(expect);
  }

  std::uint64_t pick_state = config_.seed ^ (0xA0761D6478BD642FULL * (step + 1)) ^
                             (0xE7037ED1A0B428DBULL * (t + 1));
  PoissonSchedule schedule(thread_rate, config_.seed * 1000003 + step * 131 + t);

  // Receive scratch.
  std::vector<std::array<std::uint8_t, kMaxAnswer>> rx_buf(kBatch);
  std::vector<iovec> rx_iov(kBatch);
  std::vector<mmsghdr> rx_hdr(kBatch);

  std::uint64_t outstanding = 0;  // all live slots
  std::uint64_t legit_outstanding = 0;
  for (auto& s : states) {
    for (auto& slot : s->slots) {
      outstanding += slot.live;
      legit_outstanding += slot.live && slot.kind == kLoad && !attack[slot.entry];
    }
  }
  const auto legit_load = [&](const Slot& slot) { return slot.kind == kLoad && !attack[slot.entry]; };

  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = mono_ns();
  const auto send_window_ns = static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t end_ns = t0 + send_window_ns;
  std::int64_t next_sample = t0 + kSampleNs;
  std::int64_t next_due = t0 + schedule.next_gap_ns();
  const bool probing = config_.probe_interval_ns > 0 && t == 0;
  std::int64_t next_probe = t0 + config_.probe_interval_ns;
  std::uint64_t probes = 0;
  std::size_t rr = 0;

  const auto prepare = [&](std::size_t f, std::uint32_t entry, std::int64_t due,
                           std::uint8_t kind, const sockaddr_in* dst) {
    FlowState& fs = *states[f];
    const std::uint16_t id = fs.next_id++;
    Slot& slot = fs.slots[id];
    if (slot.live) {  // never answered before its id came round again
      --outstanding;
      if (legit_load(slot)) --legit_outstanding;
      if (slot.kind == kLoad) {
        if (attack[slot.entry]) ++st.dropped_attack; else ++st.dropped_legit;
      }
    }
    const auto q = corpus.at(entry);
    auto& buf = fs.tx_buf[fs.pending];
    std::memcpy(buf.data(), q.data(), q.size());
    buf[0] = static_cast<std::uint8_t>(id >> 8);
    buf[1] = static_cast<std::uint8_t>(id & 0xFF);
    fs.tx_iov[fs.pending] = iovec{buf.data(), q.size()};
    mmsghdr& h = fs.tx_hdr[fs.pending];
    std::memset(&h, 0, sizeof(h));
    h.msg_hdr.msg_iov = &fs.tx_iov[fs.pending];
    h.msg_hdr.msg_iovlen = 1;
    h.msg_hdr.msg_name = const_cast<sockaddr_in*>(dst);
    h.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    slot = Slot{due, 0, entry, 1, kind};
    ++fs.pending;
    ++outstanding;
    if (legit_load(slot)) ++legit_outstanding;
  };

  const auto flush = [&](std::size_t f, std::int64_t stamp) {
    FlowState& fs = *states[f];
    if (fs.pending == 0) return;
    // Stamp before the syscall: the send time is when the batch left.
    for (std::size_t i = 0; i < fs.pending; ++i) {
      const auto* b = static_cast<const std::uint8_t*>(fs.tx_iov[i].iov_base);
      fs.slots[static_cast<std::uint16_t>((b[0] << 8) | b[1])].sent_ns = stamp;
    }
    std::size_t done = 0;
    while (done < fs.pending) {
      const int n = ::sendmmsg(flows[f].fd, fs.tx_hdr.data() + done,
                               static_cast<unsigned>(fs.pending - done), 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        st.send_errors += fs.pending - done;  // left live: counted dropped later
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    fs.pending = 0;
  };

  while (true) {
    std::int64_t now = mono_ns();
    if (now < end_ns) {
      std::size_t built = 0;
      while (next_due <= now && next_due < end_ns && built < kBatch) {
        const std::size_t f = rr++ % nf;
        const auto entry = static_cast<std::uint32_t>(splitmix64(pick_state) % corpus.size());
        prepare(f, entry, next_due, kLoad, &flows[f].dst);
        if (attack[entry]) ++st.sent_attack; else ++st.sent_legit;
        ++st.per_flow_sent[f];
        if (spec.keep_samples) {
          st.lateness_us.push_back(static_cast<double>(lateness_ns({next_due, now, 0})) / 1e3);
        }
        next_due += schedule.next_gap_ns();
        ++built;
      }
      if (probing && now >= next_probe) {
        const std::size_t f = probes % nf;
        const bool direct = (probes / nf) % 2 == 1;
        prepare(f, config_.probe_entry, now, direct ? kProbeDirect : kProbeFront,
                direct ? &flows[f].direct : &flows[f].dst);
        ++probes;
        next_probe += config_.probe_interval_ns;
      }
      if (built > 0 || probing) {
        const std::int64_t stamp = mono_ns();
        for (std::size_t f = 0; f < nf; ++f) flush(f, stamp);
      }
    }
    while (now < end_ns && now >= next_sample) {
      st.outstanding_samples.push_back(legit_outstanding);
      next_sample += kSampleNs;
    }

    for (std::size_t f = 0; f < nf; ++f) {
      FlowState& fs = *states[f];
      while (true) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          rx_iov[i] = iovec{rx_buf[i].data(), kMaxAnswer};
          std::memset(&rx_hdr[i], 0, sizeof(mmsghdr));
          rx_hdr[i].msg_hdr.msg_iov = &rx_iov[i];
          rx_hdr[i].msg_hdr.msg_iovlen = 1;
        }
        const int n = ::recvmmsg(flows[f].fd, rx_hdr.data(), static_cast<unsigned>(kBatch),
                                 MSG_DONTWAIT, nullptr);
        if (n <= 0) break;
        const std::int64_t rt = mono_ns();
        for (int i = 0; i < n; ++i) {
          const std::span<const std::uint8_t> resp(rx_buf[static_cast<std::size_t>(i)].data(),
                                                   rx_hdr[static_cast<std::size_t>(i)].msg_len);
          if (resp.size() < 12) {
            ++st.unexpected;
            continue;
          }
          Slot& slot = fs.slots[static_cast<std::uint16_t>((resp[0] << 8) | resp[1])];
          if (!slot.live) {
            ++st.unexpected;
            continue;
          }
          slot.live = 0;
          --outstanding;
          if (legit_load(slot)) --legit_outstanding;
          const Verdict v = config_.verifier->check(flow_base + f, slot.entry, resp, rt);
          if (slot.kind != kLoad) {
            if (v != Verdict::Ok) {
              ++st.mismatched_legit;
              continue;
            }
            auto& dst = slot.kind == kProbeFront ? st.probe_front_us : st.probe_direct_us;
            dst.push_back(static_cast<double>(rt - slot.sent_ns) / 1e3);
            continue;
          }
          const bool is_attack = attack[slot.entry] != 0;
          switch (v) {
            case Verdict::Ok:
              if (is_attack) {
                ++st.ok_attack;
              } else {
                ++st.ok_legit;
                if (spec.keep_samples) {
                  st.latency_us.push_back(
                      static_cast<double>(due_latency_ns({slot.due_ns, slot.sent_ns, rt})) / 1e3);
                  st.latency_window.push_back(static_cast<std::uint8_t>(
                      std::min<std::int64_t>(255, (rt - t0) / kWindowNs)));
                }
              }
              break;
            case Verdict::Mismatch:
              if (is_attack) ++st.mismatched_attack; else ++st.mismatched_legit;
              break;
            case Verdict::ServFail:
              if (is_attack) ++st.ok_attack; else ++st.servfail_legit;
              break;
            case Verdict::Stale:
              ++st.stale_legit;
              break;
          }
        }
        if (static_cast<std::size_t>(n) < kBatch) break;
      }
    }

    now = mono_ns();
    if (now >= end_ns) {
      if (outstanding == 0 || now >= end_ns + kDrainNs) break;
    }
  }

  // Whatever is still unanswered after the drain window is lost.
  for (auto& fs : states) {
    for (auto& slot : fs->slots) {
      if (!slot.live) continue;
      slot.live = 0;
      if (slot.kind != kLoad) continue;
      if (attack[slot.entry]) ++st.dropped_attack; else ++st.dropped_legit;
    }
  }
  st.gen_cpu_ns = thread_cpu_ns() - cpu0;
  st.wall_ns = mono_ns() - t0;
  return st;
}

}  // namespace perfbench
