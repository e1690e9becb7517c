// perfbench: the repository benchmark.
//
//   perfbench --workload hot|cold|churn|pop_attack --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics against the real socket stack
// (net::Server, and fleet::AnycastFront for pop_attack) with an open-loop
// generator in the same process. --trace 1 reruns the workload with the
// server workers replaced by a traced loop (traced_server.hpp) and reports
// the per-layer breakdown. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok, 1 byte mismatch, 2 usage/setup error, 3 invalid run
// (flow skew above 1.05 or a generator that fell behind, after retries).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <poll.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis.hpp"
#include "dns/wire.hpp"
#include "fleet/anycast_front.hpp"
#include "generator.hpp"
#include "host.hpp"
#include "net/server.hpp"
#include "trace.hpp"
#include "traced_server.hpp"
#include "worlds.hpp"
#include "zone/compiled_zone.hpp"

namespace ad = akadns;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------- config

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string revision = "unknown";
  std::string build_type = "unknown";
};

/// One workload's fixed shape. Rates are absolute offered loads (qps).
struct WorkloadSpec {
  std::string name;
  std::size_t machines = 1;      // >1: behind an AnycastFront
  std::size_t workers = 2;       // per machine
  std::size_t gen_threads = 2;
  double nominal_qps = 0.0;
  double ladder_hi = 0.0;  // the ladder starts at nominal_qps
  bool defense = false;
  bool churn = false;
  bool cold = false;
};

/// Client sockets, split evenly over the generator threads.
constexpr std::size_t kFlows = 4;
constexpr double kSkewLimit = 1.05;
/// A phase is invalid when more than 1% of its sends left later than this
/// after their due time (whole-phase p99 lateness).
constexpr double kLatenessLimitUs = 200.0;
/// Attempts at a valid phase. A host that stalls the VM for seconds
/// invalidates every attempt in that window, hence the pause between.
constexpr int kPhaseAttempts = 4;
constexpr auto kRetryPause = std::chrono::seconds(2);
constexpr double kChurnPublishesPerSecond = 20.0;
constexpr std::size_t kChurnRanks = 4;
constexpr std::size_t kHostedZones = 1000;
constexpr std::size_t kColdZones = 4'000;
constexpr std::size_t kColdQueries = 262'144;

std::optional<WorkloadSpec> spec_for(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "hot") {
    s.nominal_qps = 40'000;
    s.ladder_hi = 400'000;
  } else if (name == "cold") {
    s.cold = true;
    s.nominal_qps = 20'000;
    s.ladder_hi = 300'000;
  } else if (name == "churn") {
    s.churn = true;
    s.nominal_qps = 40'000;
    s.ladder_hi = 400'000;
  } else if (name == "pop_attack") {
    s.machines = 2;
    s.workers = 1;
    s.gen_threads = 1;
    s.defense = true;
    s.nominal_qps = 20'000;
    s.ladder_hi = 300'000;
  } else {
    return std::nullopt;
  }
  return s;
}

ad::net::ServeConfig serve_config(const WorkloadSpec& spec) {
  ad::net::ServeConfig cfg;
  cfg.workers = spec.workers;
  if (spec.defense) {
    cfg.defense.enabled = true;
    cfg.defense.compute_qps = 0.0;  // unmetered
    // Penalty >= S_max (discard_score): attack queries are shed at enqueue.
    cfg.defense.nxdomain_penalty = cfg.defense.queue_config.discard_score + 50.0;
    cfg.defense.qod_rules.push_back(ad::dns::DnsName::from("qod.perfbench.invalid."));
  }
  return cfg;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ----------------------------------------------------------------- oracle

/// Per-entry answers across churned zone generations: each segment is a
/// run of generations [lo, hi] that answer with identical bytes.
class ChurnVerifier final : public Verifier {
 public:
  struct Segment {
    std::uint32_t lo = 0, hi = 0, bytes = 0;
  };

  ChurnVerifier(const Arena& base, std::size_t flows, std::size_t publishes)
      : base_(base), publishes_(publishes) {
    seen_.assign(flows, std::vector<std::uint32_t>(kChurnRanks, 0));
    visible_ns_.assign(flows, std::vector<std::int64_t>(publishes, 0));
  }

  std::vector<std::int32_t> rank_of;        // per entry: churned rank index or -1
  std::vector<std::uint32_t> seg_begin;     // per entry (+1): range in segs
  std::vector<Segment> segs;
  Arena seg_bytes;

  static std::size_t publish_index(std::size_t ri, std::uint32_t gen) {
    return (gen - 1) * kChurnRanks + ri;
  }

  Verdict check(std::size_t flow, std::uint32_t entry, std::span<const std::uint8_t> resp,
                std::int64_t now) override {
    const std::int32_t ri = rank_of[entry];
    if (ri < 0) {
      if (same_answer(resp, base_.at(entry))) return Verdict::Ok;
      return is_servfail(resp) ? Verdict::ServFail : Verdict::Mismatch;
    }
    const Segment* hit = nullptr;
    for (std::uint32_t s = seg_begin[entry + 1]; s-- > seg_begin[entry];) {
      if (same_answer(resp, seg_bytes.at(segs[s].bytes))) {
        hit = &segs[s];
        break;
      }
    }
    if (!hit) return is_servfail(resp) ? Verdict::ServFail : Verdict::Mismatch;
    std::uint32_t& seen = seen_[flow][static_cast<std::size_t>(ri)];
    if (hit->hi < seen) return Verdict::Stale;  // older than what this flow already saw
    for (std::uint32_t g = seen + 1; g <= hit->lo; ++g) {
      const std::size_t k = publish_index(static_cast<std::size_t>(ri), g);
      if (k < publishes_ && visible_ns_[flow][k] == 0) visible_ns_[flow][k] = now;
    }
    seen = std::max(seen, hit->lo);
    return Verdict::Ok;
  }

  void reset() {
    for (auto& f : seen_) std::fill(f.begin(), f.end(), 0);
    for (auto& f : visible_ns_) std::fill(f.begin(), f.end(), 0);
  }

  /// Publish-to-visible (ms) for every publish that every flow saw.
  std::vector<double> visible_ms(const std::vector<std::int64_t>& published_at,
                                 std::size_t& unresolved) const {
    std::vector<double> out;
    unresolved = 0;
    for (std::size_t k = 0; k < published_at.size() && k < publishes_; ++k) {
      std::int64_t last = 0;
      bool all = true;
      for (const auto& flow : visible_ns_) {
        if (flow[k] == 0) all = false;
        last = std::max(last, flow[k]);
      }
      if (!all) {
        ++unresolved;
        continue;
      }
      out.push_back(static_cast<double>(last - published_at[k]) / 1e6);
    }
    return out;
  }

 private:
  const Arena& base_;
  std::size_t publishes_;
  std::vector<std::vector<std::uint32_t>> seen_;
  std::vector<std::vector<std::int64_t>> visible_ns_;
};

/// Everything derived from the seed that is not the system under test:
/// the queries, the reference answers, and churn's version table. Built
/// from a world of its own, outside every timed region.
struct Oracle {
  Queries queries;
  Arena expected;
  std::unique_ptr<ChurnVerifier> churn;
  std::unique_ptr<StaticVerifier> fixed;
  std::uint32_t probe_entry = 0;
  Verifier& verifier() { return churn ? static_cast<Verifier&>(*churn) : *fixed; }
};

ad::workload::ReplayMixConfig replay_mix(const WorkloadSpec& spec, std::uint64_t seed) {
  ad::workload::ReplayMixConfig mix;
  mix.corpus_size = 4096;
  mix.seed = seed;
  if (spec.defense) {
    mix.attack_fraction = 0.5;
    mix.random_subdomain_weight = 1.0;
    mix.direct_query_weight = 0.0;
    mix.spoofed_weight = 0.0;
  }
  return mix;
}

/// Publishes the writer may make in one run: enough for the warm-up,
/// every attempt at the nominal phase and every ladder probe, which
/// together send for at most kPhaseAttempts x 0.6 x seconds + 0.5 +
/// 10 x 0.04 x seconds (a ladder of at most 31 rungs takes at most five
/// probes, each run twice when it fails). A
/// traced run sends for less. Running out in a measured phase makes it
/// invalid.
std::size_t churn_publish_budget(double seconds) {
  const double send_s = kPhaseAttempts * 0.6 * seconds + 0.5 + 0.4 * seconds;
  return static_cast<std::size_t>(kChurnPublishesPerSecond * (send_s + 1.0));
}

std::unique_ptr<Oracle> build_oracle(const WorkloadSpec& spec, const Options& opt) {
  auto owned = std::make_unique<Oracle>();  // verifiers point into it: never moved
  Oracle& o = *owned;
  std::unique_ptr<ad::workload::HostedZones> hosted;
  if (spec.cold) {
    const auto store = build_cold_world(kColdZones, opt.seed);
    o.queries = cold_queries(kColdZones, kColdQueries, opt.seed);
    o.expected = oracle_answers(o.queries, *store);
  } else {
    hosted = build_hosted(kHostedZones, opt.seed);
    ReplaySet set = replay_set(*hosted, replay_mix(spec, opt.seed));
    o.queries = std::move(set.queries);
    o.expected = std::move(set.expected);
  }
  for (std::uint32_t i = 0; i < o.queries.size(); ++i) {
    if (!o.queries.is_attack[i] && o.expected.at(i).size() >= 12) {
      o.probe_entry = i;
      break;
    }
  }
  const std::size_t flows = kFlows;
  if (spec.churn) {
    const std::size_t publishes = churn_publish_budget(opt.seconds);
    o.churn = std::make_unique<ChurnVerifier>(o.expected, flows, publishes);
    ChurnVerifier& cv = *o.churn;
    auto& store = hosted->store();
    std::map<ad::dns::DnsName, std::size_t> churned;  // apex -> rank index
    std::vector<ad::zone::ZonePtr> bases;
    for (std::size_t ri = 0; ri < kChurnRanks; ++ri) {
      churned.emplace(hosted->apex(ri), ri);
      bases.push_back(store.find_zone(hosted->apex(ri)));
    }
    cv.rank_of.assign(o.queries.size(), -1);
    std::vector<std::vector<std::uint32_t>> by_rank(kChurnRanks);
    for (std::uint32_t i = 0; i < o.queries.size(); ++i) {
      auto view = ad::dns::decode_query_view(o.queries.wire.at(i));
      if (!view) continue;
      const auto zone = store.find_best_zone(view.value().question.name);
      if (!zone) continue;
      const auto it = churned.find(zone->apex());
      if (it == churned.end()) continue;
      cv.rank_of[i] = static_cast<std::int32_t>(it->second);
      by_rank[it->second].push_back(i);
    }
    // Answers per generation, computed by publishing each evolved
    // version into the oracle's own store.
    const auto gens = static_cast<std::uint32_t>(publishes / kChurnRanks + 1);
    std::vector<std::vector<std::pair<std::vector<std::uint8_t>, ChurnVerifier::Segment>>> runs(
        o.queries.size());
    ad::server::ResponderConfig rc;
    rc.enable_answer_cache = false;
    ad::server::Responder responder(store, rc);
    for (std::uint32_t g = 0; g <= gens; ++g) {
      for (std::size_t ri = 0; ri < kChurnRanks; ++ri) {
        if (g > 0) store.publish(ad::workload::evolved_zone(*bases[ri], g));
        for (const std::uint32_t e : by_rank[ri]) {
          auto bytes = responder.respond_wire(o.queries.wire.at(e), o.queries.source[e]);
          std::vector<std::uint8_t> b = bytes ? std::move(*bytes) : std::vector<std::uint8_t>{};
          auto& r = runs[e];
          if (!r.empty() && r.back().first == b) {
            r.back().second.hi = g;
          } else {
            r.push_back({std::move(b), ChurnVerifier::Segment{g, g, 0}});
          }
        }
      }
    }
    cv.seg_begin.assign(o.queries.size() + 1, 0);
    for (std::size_t e = 0; e < o.queries.size(); ++e) {
      cv.seg_begin[e] = static_cast<std::uint32_t>(cv.segs.size());
      for (auto& [bytes, seg] : runs[e]) {
        seg.bytes = static_cast<std::uint32_t>(cv.seg_bytes.size());
        cv.seg_bytes.push(bytes);
        cv.segs.push_back(seg);
      }
    }
    cv.seg_begin[o.queries.size()] = static_cast<std::uint32_t>(cv.segs.size());
  } else {
    o.fixed = std::make_unique<StaticVerifier>(o.expected);
  }
  return owned;
}

// -------------------------------------------------------------------- SUT

/// The system under test: one or two machines (real or traced), plus the
/// anycast front when there are two.
struct Sut {
  std::unique_ptr<ad::workload::HostedZones> hosted;  // the SUT's own world
  std::unique_ptr<ad::zone::ZoneStore> cold;
  std::vector<std::unique_ptr<ad::net::Server>> servers;
  std::vector<std::unique_ptr<TracedServer>> traced;
  std::unique_ptr<ad::fleet::AnycastFront> front;
  std::uint16_t target_port = 0;

  const ad::zone::ZoneStore& store() const { return hosted ? hosted->store() : *cold; }
  std::size_t machines() const { return servers.empty() ? traced.size() : servers.size(); }
  std::uint16_t machine_port(std::size_t i) const {
    return servers.empty() ? traced[i]->udp_port() : servers[i]->udp_port();
  }
  std::vector<std::uint64_t> worker_packets(std::size_t m) const {
    return servers.empty() ? traced[m]->per_worker_udp() : servers[m]->stats().per_worker_udp;
  }
  /// Packet counts per placement unit: per worker with one machine, per
  /// machine behind the front.
  std::vector<std::uint64_t> unit_packets() const {
    if (machines() == 1) return worker_packets(0);
    std::vector<std::uint64_t> out;
    for (std::size_t m = 0; m < machines(); ++m) {
      const auto w = worker_packets(m);
      out.push_back(std::accumulate(w.begin(), w.end(), std::uint64_t{0}));
    }
    return out;
  }
  ad::propagation::ZonePublisher& publisher() {
    return servers.empty() ? traced[0]->publisher() : servers[0]->publisher();
  }
  void stop() {
    if (front) front->stop();
    for (auto& s : servers) s->stop();
    for (auto& t : traced) t->stop();
  }
};

/// Probes from fresh client sockets until every placement unit (worker,
/// or machine behind the front) owns the same number of flows; each
/// probe's answer is byte-checked. Returns false on a failed probe.
bool place_flows(Sut& sut, const WorkloadSpec& spec, const Oracle& oracle,
                 std::vector<std::vector<Flow>>& out, std::vector<std::size_t>& unit_of_flow,
                 std::string& err) {
  const std::size_t units = spec.machines > 1 ? spec.machines : spec.workers;
  const std::size_t per_thread = kFlows / spec.gen_threads;
  const auto probe = oracle.queries.wire.at(oracle.probe_entry);
  const auto expected = oracle.expected.at(oracle.probe_entry);
  out.assign(spec.gen_threads, {});
  unit_of_flow.clear();
  std::uint16_t txid = 0x4000;
  for (std::size_t t = 0; t < spec.gen_threads; ++t) {
    for (std::size_t j = 0; j < per_thread; ++j) {
      const std::size_t want = (t * per_thread + j) % units;
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        Flow f;
        f.fd = open_client_socket();
        if (f.fd < 0) {
          err = "client socket";
          return false;
        }
        f.dst = loopback(sut.target_port);
        const auto before = sut.unit_packets();
        std::vector<std::uint8_t> q(probe.begin(), probe.end());
        ++txid;
        q[0] = static_cast<std::uint8_t>(txid >> 8);
        q[1] = static_cast<std::uint8_t>(txid & 0xFF);
        ::sendto(f.fd, q.data(), q.size(), 0, reinterpret_cast<const sockaddr*>(&f.dst),
                 sizeof(f.dst));
        std::uint8_t buf[4096];
        pollfd pfd{f.fd, POLLIN, 0};
        ssize_t n = -1;
        if (::poll(&pfd, 1, 1000) == 1) n = ::recv(f.fd, buf, sizeof(buf), 0);
        if (n < 12) {  // unanswered: try another flow
          ::close(f.fd);
          continue;
        }
        if (buf[0] != q[0] || buf[1] != q[1] ||
            !same_answer({buf, static_cast<std::size_t>(n)}, expected)) {
          ::close(f.fd);
          err = "placement probe answered with the wrong bytes";
          return false;
        }
        const auto after = sut.unit_packets();
        std::size_t got = units;
        for (std::size_t u = 0; u < units && u < after.size(); ++u) {
          if (after[u] > before[u]) got = u;
        }
        if (got == want) {
          if (spec.machines > 1) f.direct = loopback(sut.machine_port(got));
          out[t].push_back(f);
          unit_of_flow.push_back(got);
          placed = true;
        } else {
          ::close(f.fd);
        }
      }
      if (!placed) {
        err = "could not place a flow on unit " + std::to_string(want);
        return false;
      }
    }
  }
  return true;
}

void close_flows(std::vector<std::vector<Flow>>& flows) {
  for (auto& t : flows) {
    for (auto& f : t) ::close(f.fd);
  }
  flows.clear();
}

struct Live {
  Sut sut;
  std::vector<std::vector<Flow>> flows;
  std::vector<std::size_t> unit_of_flow;
  double setup_s = 0.0;
  double compile_s = 0.0;
  ~Live() {
    sut.stop();
    close_flows(flows);
  }
};

/// Gives each thread started since `before` a SUT core of its own. The
/// threads inherit the whole SUT mask, and without this the scheduler may
/// stack two workers on one core for part of a run and not in another.
/// Used for a single machine only: behind the front every query hops
/// front -> worker -> front, and fixed cores turn each hop into a
/// cross-core wake-up (measured on pop_attack: +25% SUT CPU per query,
/// no steadier).
void pin_new_threads(const std::vector<int>& before, const std::vector<int>& sut_cores) {
  std::size_t next = 0;
  for (const int tid : thread_ids()) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    pin_thread(tid, sut_cores[next++ % sut_cores.size()]);
  }
}

/// Builds the zone world, compiles it, starts the SUT, places the flows
/// and gets the first verified answer — the timed set-up.
std::unique_ptr<Live> set_up(const WorkloadSpec& spec, const Options& opt, const Oracle& oracle,
                             const std::vector<int>& sut_cores, bool traced,
                             std::size_t span_capacity, std::string& err) {
  auto live = std::make_unique<Live>();
  Sut& sut = live->sut;
  const std::int64_t t0 = mono_ns();
  if (spec.cold) {
    sut.cold = build_cold_world(kColdZones, opt.seed);
  } else {
    sut.hosted = build_hosted(kHostedZones, opt.seed);
  }
  live->compile_s = static_cast<double>(sut.store().compile_stats().total_micros.value()) / 1e6;
  const auto cfg = serve_config(spec);
  const auto before = thread_ids();
  for (std::size_t m = 0; m < spec.machines; ++m) {
    if (traced) {
      sut.traced.push_back(std::make_unique<TracedServer>(cfg, sut.store(), span_capacity));
      auto r = sut.traced.back()->start();
      if (!r) {
        err = r.error();
        return nullptr;
      }
    } else {
      sut.servers.push_back(std::make_unique<ad::net::Server>(cfg, sut.store()));
      auto r = sut.servers.back()->start();
      if (!r) {
        err = r.error();
        return nullptr;
      }
    }
  }
  if (spec.machines == 1) pin_new_threads(before, sut_cores);
  if (spec.machines > 1) {
    sut.front = std::make_unique<ad::fleet::AnycastFront>(ad::fleet::FrontConfig{});
    auto r = sut.front->start();
    if (!r) {
      err = r.error();
      return nullptr;
    }
    for (std::size_t m = 0; m < spec.machines; ++m) {
      sut.front->upsert_member("m" + std::to_string(m),
                               ad::Endpoint{ad::IpAddr(ad::Ipv4Addr(127, 0, 0, 1)),
                                            sut.machine_port(m)});
    }
    // Membership changes are applied by the front's own thread: wait
    // until both members are live before the first probe.
    for (int i = 0; i < 1000; ++i) {
      const auto members = sut.front->members();
      if (members.size() == spec.machines &&
          std::all_of(members.begin(), members.end(), [](const auto& m) { return m.active; })) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sut.target_port = sut.front->udp_port();
  } else {
    sut.target_port = sut.machine_port(0);
  }
  if (!place_flows(sut, spec, oracle, live->flows, live->unit_of_flow, err)) return nullptr;
  live->setup_s = static_cast<double>(mono_ns() - t0) / 1e9;
  return live;
}

// ------------------------------------------------------------ side work

/// The main thread's work while the generator runs: the 1 Hz metrics
/// scrape and, on churn, the zone writer.
struct SideWork {
  Live* live = nullptr;
  ad::workload::HostedZones* churn_world = nullptr;  // churn: where versions come from
  std::size_t publish_budget = 0;
  std::vector<std::int64_t> published_at;
  std::vector<double> publish_us;
  std::vector<double> snapshot_us;
  /// The writer wanted to publish but the budget was spent.
  bool budget_spent = false;

  /// Runs until `end_ns`. Every call starts its own publish clock, so a
  /// phase never replays publishes missed between phases.
  void operator()(std::int64_t end_ns) {
    const std::int64_t period = static_cast<std::int64_t>(1e9 / kChurnPublishesPerSecond);
    std::int64_t next_scrape = mono_ns() + 500'000'000;
    std::int64_t next_publish = mono_ns() + period;
    while (true) {
      std::int64_t now = mono_ns();
      if (now >= end_ns) break;
      if (churn_world && now >= next_publish && published_at.size() >= publish_budget) {
        budget_spent = true;
        next_publish = end_ns;
      }
      if (churn_world && now >= next_publish) {
        const std::size_t k = published_at.size();
        const std::size_t rank = k % kChurnRanks;
        const auto gen = static_cast<std::uint32_t>(k / kChurnRanks + 1);
        ad::zone::Zone z = churn_world->evolved(rank, gen);
        const std::int64_t p0 = mono_ns();
        live->sut.publisher().publish(std::move(z));
        const std::int64_t p1 = mono_ns();
        published_at.push_back(p0);
        publish_us.push_back(static_cast<double>(p1 - p0) / 1e3);
        next_publish += period;
      }
      if (now >= next_scrape) {
        for (auto& s : live->sut.servers) {
          const std::int64_t s0 = mono_ns();
          const auto snap = s->metrics_snapshot();
          snapshot_us.push_back(static_cast<double>(mono_ns() - s0) / 1e3);
        }
        next_scrape += 1'000'000'000;
      }
      now = mono_ns();
      std::int64_t wake = std::min(end_ns, next_scrape);
      if (churn_world) wake = std::min(wake, next_publish);
      if (wake > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::int64_t>(
            wake - now, 5'000'000)));
      }
    }
  }
};

// --------------------------------------------------------------- phases

struct PhaseResult {
  StepStats st;
  double p50_us = 0.0, p99_us = 0.0;  // windowed (see windowed_quantile)
  double whole_p99_us = 0.0;         // over the whole phase
  double lateness_p99_us = 0.0;      // over the whole phase
  double sut_cpu_us_per_query = 0.0;
  double skew = 1.0;            // per placement unit
  std::vector<std::uint64_t> unit_delta;
  bool valid = true;
  std::string why_invalid;
  std::optional<TailChoice> tail;
};

PhaseResult run_phase(Generator& gen, Live& live, SideWork& side, const StepSpec& spec) {
  PhaseResult r;
  const auto units0 = live.sut.unit_packets();
  side.budget_spent = false;
  const std::int64_t cpu0 = process_cpu_ns();
  r.st = gen.run(spec, [&side](std::int64_t end) { side(end); });
  const std::int64_t cpu1 = process_cpu_ns();
  const auto units1 = live.sut.unit_packets();
  for (std::size_t u = 0; u < units1.size(); ++u) r.unit_delta.push_back(units1[u] - units0[u]);
  r.skew = max_min_ratio(r.unit_delta);
  // p50/p99: median over 250 ms windows of each window's percentile.
  r.p50_us = windowed_quantile(r.st.latency_us, r.st.latency_window, 0.5);
  r.p99_us = windowed_quantile(r.st.latency_us, r.st.latency_window, 0.99);
  std::sort(r.st.latency_us.begin(), r.st.latency_us.end());
  r.whole_p99_us = quantile_sorted(r.st.latency_us, 0.99);
  r.tail = highest_supported_percentile(r.st.latency_us);
  // Over the whole phase, not per window: a generator late in a few
  // windows is still behind.
  std::sort(r.st.lateness_us.begin(), r.st.lateness_us.end());
  r.lateness_p99_us = quantile_sorted(r.st.lateness_us, 0.99);
  const double sut_cpu_ns = static_cast<double>(cpu1 - cpu0 - r.st.gen_cpu_ns);
  r.sut_cpu_us_per_query =
      sut_cpu_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(1, r.st.answered()));
  if (r.skew > kSkewLimit) {
    r.valid = false;
    r.why_invalid = "unit packet skew " + std::to_string(r.skew) + " > 1.05";
  } else if (r.lateness_p99_us > kLatenessLimitUs) {
    r.valid = false;
    r.why_invalid = "generator fell behind: lateness p99 " + std::to_string(r.lateness_p99_us) +
                    " us > " + std::to_string(kLatenessLimitUs) + " us";
  } else if (side.budget_spent) {
    r.valid = false;
    r.why_invalid = "churn publish budget spent: the write rate was not kept";
  }
  return r;
}

void print_phase(const char* label, const PhaseResult& r) {
  const auto& s = r.st;
  std::printf(
      "  %-10s rate=%.0f qps  legit sent=%llu ok=%llu failed=%llu (dropped=%llu mismatched=%llu "
      "servfail=%llu stale=%llu)  attack sent=%llu answered=%llu\n",
      label, s.rate_qps, static_cast<unsigned long long>(s.sent_legit),
      static_cast<unsigned long long>(s.ok_legit),
      static_cast<unsigned long long>(s.failed_legit()),
      static_cast<unsigned long long>(s.dropped_legit),
      static_cast<unsigned long long>(s.mismatched_legit),
      static_cast<unsigned long long>(s.servfail_legit),
      static_cast<unsigned long long>(s.stale_legit),
      static_cast<unsigned long long>(s.sent_attack),
      static_cast<unsigned long long>(s.ok_attack + s.mismatched_attack));
  std::printf("  %-10s p50=%.1f us p99=%.1f us (windowed; whole-phase p99=%.1f us)", "",
              r.p50_us, r.p99_us, r.whole_p99_us);
  if (r.tail) {
    std::printf("  p%.2f=%.1f us (%zu samples beyond, n=%zu)", r.tail->percentile, r.tail->value,
                r.tail->beyond, s.latency_us.size());
  }
  std::printf("  lateness p99=%.1f us  sut cpu=%.3f us/query  unit skew=%.3f  unexpected "
              "answers=%llu send errors=%llu%s%s\n",
              r.lateness_p99_us, r.sut_cpu_us_per_query, r.skew,
              static_cast<unsigned long long>(s.unexpected),
              static_cast<unsigned long long>(s.send_errors), r.valid ? "" : "  INVALID: ",
              r.valid ? "" : r.why_invalid.c_str());
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void emit_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<std::tuple<std::string, double, std::string>>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i) s += ", ";
    s += "\"" + name + "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

std::string core_list(const std::vector<int>& cores) {
  std::string s;
  for (const int c : cores) s += (s.empty() ? "" : ",") + std::to_string(c);
  return s;
}

struct Cores {
  std::vector<int> sut, gen;
};

void print_header(const WorkloadSpec& spec, const Options& opt, const Cores& cores) {
  std::printf("perfbench workload=%s seed=%llu seconds=%.0f trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("  host: nproc=%u cpu=\"%s\" build=%s revision=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(), opt.build_type.c_str(),
              opt.revision.c_str());
  std::printf("  cores: sut=[%s] generator=[%s]  machines=%zu workers/machine=%zu "
              "generator threads=%zu flows=%zu\n",
              core_list(cores.sut).c_str(), core_list(cores.gen).c_str(), spec.machines,
              spec.workers, spec.gen_threads, kFlows);
  std::printf("  schedule: open loop, Poisson arrivals seeded from %llu; nominal %.0f qps; "
              "ladder %.0f..%.0f qps x%.2f; latency limit %.0f us (p99)\n",
              static_cast<unsigned long long>(opt.seed), spec.nominal_qps, spec.nominal_qps,
              spec.ladder_hi, kLadderRatio, kLatencyLimitUs);
}

GenConfig gen_config(Live& live, const Cores& cores, Oracle& oracle, const Options& opt) {
  GenConfig gc;
  gc.flows = live.flows;
  gc.cores = cores.gen;
  gc.corpus = &oracle.queries.wire;
  gc.is_attack = &oracle.queries.is_attack;
  gc.verifier = &oracle.verifier();
  gc.seed = opt.seed;
  return gc;
}

// ------------------------------------------------------- untraced run

int run_untraced(const WorkloadSpec& spec, const Options& opt, const Cores& cores) {
  const auto owned_oracle = build_oracle(spec, opt);
  Oracle& oracle = *owned_oracle;
  malloc_trim(0);  // hand the oracle's freed world back, so RSS growth is the SUT's
  const double rss0 = rss_mb();
  std::string err;
  std::vector<double> setups;
  auto live = set_up(spec, opt, oracle, cores.sut, false, 0, err);
  if (!live) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", err.c_str());
    return 2;
  }
  setups.push_back(live->setup_s);

  // The generator's own tables are not the SUT's memory.
  const double rss_gen0 = rss_mb();
  Generator gen(gen_config(*live, cores, oracle, opt));
  const double rss_gen = rss_mb() - rss_gen0;
  SideWork side;
  side.live = live.get();
  if (spec.churn) {
    side.churn_world = live->sut.hosted.get();
    side.publish_budget = churn_publish_budget(opt.seconds);
  }
  const auto inval0 = live->sut.servers[0]->stats().answer_cache.invalidations;
  std::uint64_t mismatches = 0;

  // Warm-up: fill caches, arm filters.
  auto warm = run_phase(gen, *live, side, {spec.nominal_qps, 0.5, false});
  mismatches += warm.st.mismatched();
  const double rss = rss_mb() - rss0 - rss_gen;

  // Nominal rate: latency, CPU, failures. Invalid phases are rerun.
  const double nominal_s = 0.6 * opt.seconds;
  PhaseResult nom;
  for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(kRetryPause);
    nom = run_phase(gen, *live, side, {spec.nominal_qps, nominal_s, true});
    mismatches += nom.st.mismatched();
    print_phase(attempt == 0 ? "nominal" : "rerun", nom);
    if (nom.valid) break;
  }

  // Capacity: binary search over the fixed ladder.
  const auto rungs = geometric_ladder(spec.nominal_qps, spec.ladder_hi);
  const double probe_s = 0.04 * opt.seconds;
  const auto probe_rung = [&](std::size_t i) {
    auto r = run_phase(gen, *live, side, {rungs[i], probe_s, true});
    mismatches += r.st.mismatched();
    StepOutcome o{rungs[i], r.p99_us, r.st.sent_legit, r.st.failed_legit(),
                  r.st.outstanding_mid, r.st.outstanding_end};
    const bool gen_ok = r.lateness_p99_us <= kLatenessLimitUs;
    const bool pass = gen_ok && step_passes(o);
    std::printf("  ladder     rate=%.0f p99=%.1f us failed=%llu/%llu outstanding mid=%llu "
                "end=%llu lateness p99=%.1f us skew=%.3f -> %s%s\n",
                rungs[i], r.p99_us, static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.outstanding_mid),
                static_cast<unsigned long long>(o.outstanding_end), r.lateness_p99_us, r.skew,
                pass ? "pass" : "fail", gen_ok ? "" : " (generator behind: not a SUT pass)");
    return pass;
  };
  // Noise on a shared host only ever makes a rung look worse, so a
  // failing rung is run once more before it counts as failed.
  const int cap_idx = search_capacity(
      rungs.size(), [&](std::size_t i) { return probe_rung(i) || probe_rung(i); });
  const double capacity = cap_idx >= 0 ? rungs[static_cast<std::size_t>(cap_idx)] : 0.0;
  const auto inval1 = live->sut.servers[0]->stats().answer_cache.invalidations;
  const double compile_s = live->compile_s;

  std::size_t unresolved = 0;
  std::vector<double> visible;
  if (spec.churn) visible = oracle.churn->visible_ms(side.published_at, unresolved);
  live.reset();

  // Set-up time: the median of at least three complete set-ups, more
  // (up to seven) while they stay cheap.
  double setup_total = setups[0];
  while (setups.size() < 3 || (setups.size() < 7 && setup_total < 3.0)) {
    auto again = set_up(spec, opt, oracle, cores.sut, false, 0, err);
    if (!again) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", err.c_str());
      return 2;
    }
    setups.push_back(again->setup_s);
    setup_total += again->setup_s;
  }
  const double setup_s = median_of(setups);

  const auto& s = nom.st;
  const double goodput =
      static_cast<double>(s.ok_legit) / static_cast<double>(std::max<std::uint64_t>(1, s.sent_legit));
  const double failed_ratio =
      static_cast<double>(s.failed_legit()) / static_cast<double>(std::max<std::uint64_t>(1, s.sent_legit));

  std::printf("end-to-end (%s):\n", spec.name.c_str());
  std::printf("  capacity_qps            %.0f qps (highest ladder rung meeting p99<=%.0f us, "
              "failed<=0.1%%, no growing backlog)\n", capacity, kLatencyLimitUs);
  std::printf("  p50_us                  %.2f us\n", nom.p50_us);
  std::printf("  p99_us                  %.2f us\n", nom.p99_us);
  std::printf("  failed_ratio            %.6f\n", failed_ratio);
  std::printf("  legit_goodput           %.6f\n", goodput);
  std::printf("  sut_cpu_us_per_query    %.4f us\n", nom.sut_cpu_us_per_query);
  std::printf("  setup_s                 %.4f s (median of %zu; zone compile %.4f s)\n", setup_s,
              setups.size(), compile_s);
  std::printf("  sut_rss_mb              %.2f MB\n", rss);
  if (spec.defense) {
    const double attack_answered = static_cast<double>(s.ok_attack + s.mismatched_attack) /
                                   static_cast<double>(std::max<std::uint64_t>(1, s.sent_attack));
    std::printf("  attack_answered_ratio   %.6f\n", attack_answered);
  }
  if (spec.churn) {
    std::sort(visible.begin(), visible.end());
    std::printf("  publish_visible_p50_ms  %.3f ms\n", quantile_sorted(visible, 0.5));
    std::printf("  publish_visible_p99_ms  %.3f ms  (%zu publishes seen on every flow, %zu not "
                "yet on every flow at the end)\n",
                quantile_sorted(visible, 0.99), visible.size(), unresolved);
    std::printf("  cache invalidations per publish %.3f\n",
                side.published_at.empty()
                    ? 0.0
                    : static_cast<double>(inval1 - inval0) /
                          static_cast<double>(side.published_at.size()));
  }
  if (!nom.valid) {
    std::printf("INVALID RUN: %s (not published)\n", nom.why_invalid.c_str());
    return 3;
  }
  const bool correct = mismatches == 0;
  // capacity_qps and p99_us are printed above but not gated: their
  // run-to-run spread on a shared host exceeds any usable bound.
  emit_json(correct, s.sent_legit, s.failed_legit(),
            {{"p50_us", nom.p50_us, "us"},
             {"sut_cpu_us_per_query", nom.sut_cpu_us_per_query, "us"},
             {"legit_goodput", goodput, "ratio"},
             {"setup_s", setup_s, "s"},
             {"sut_rss_mb", rss, "MB"}});
  return correct ? 0 : 1;
}

// --------------------------------------------------------- traced run

/// Mean ns of ZoneStore::find_best_compiled + CompiledZone::lookup over
/// the corpus questions (the zone layer, timed from outside the responder).
double zone_lookup_ns(const ad::zone::ZoneStore& store, const Queries& queries) {
  std::vector<ad::dns::Question> qs;
  for (std::size_t i = 0; i < queries.size() && qs.size() < 50'000; ++i) {
    auto view = ad::dns::decode_query_view(queries.wire.at(i));
    if (view) qs.push_back(view.value().question);
  }
  if (qs.empty()) return 0.0;
  std::uint64_t sink = 0;
  const std::int64_t t0 = mono_ns();
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& q : qs) {
      const auto zone = store.find_best_compiled(q.name);
      if (zone) sink += static_cast<std::uint64_t>(zone->lookup(q.name, q.qtype).status);
    }
  }
  const std::int64_t t1 = mono_ns();
  if (sink == 0xFFFFFFFFFFFFFFFFULL) std::printf(" ");  // keeps the loop from being elided
  return static_cast<double>(t1 - t0) / static_cast<double>(qs.size() * 4);
}

int run_traced(const WorkloadSpec& spec, const Options& opt, const Cores& cores) {
  const auto owned_oracle = build_oracle(spec, opt);
  Oracle& oracle = *owned_oracle;
  std::string err;
  std::uint64_t mismatches = 0;
  const double phase_s = 0.3 * opt.seconds;

  // 1. Untraced reference on the real server, same settings.
  PhaseResult ref;
  std::vector<double> snapshot_us;
  {
    auto live = set_up(spec, opt, oracle, cores.sut, false, 0, err);
    if (!live) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", err.c_str());
      return 2;
    }
    Generator gen(gen_config(*live, cores, oracle, opt));
    SideWork side;
    side.live = live.get();
    if (spec.churn) {
      side.churn_world = live->sut.hosted.get();
      side.publish_budget = churn_publish_budget(opt.seconds) / 2;
    }
    mismatches += run_phase(gen, *live, side, {spec.nominal_qps, 0.5, false}).st.mismatched();
    for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(kRetryPause);
      ref = run_phase(gen, *live, side, {spec.nominal_qps, phase_s, true});
      mismatches += ref.st.mismatched();
      print_phase(attempt == 0 ? "untraced" : "rerun", ref);
      if (ref.valid) break;
    }
    snapshot_us = side.snapshot_us;
  }

  // 2. The traced loop in place of the server workers.
  const auto span_cap = static_cast<std::size_t>(spec.nominal_qps * (phase_s + 0.5) * 12 /
                                                 static_cast<double>(spec.machines * spec.workers)) +
                        4096;
  auto live = set_up(spec, opt, oracle, cores.sut, true, span_cap, err);
  if (!live) {
    std::fprintf(stderr, "perfbench: traced set-up failed: %s\n", err.c_str());
    return 2;
  }
  if (spec.churn) oracle.churn->reset();  // new flows, new per-flow version state
  GenConfig gc = gen_config(*live, cores, oracle, opt);
  if (spec.machines > 1) {
    gc.probe_interval_ns = 1'000'000;
    gc.probe_entry = oracle.probe_entry;
  }
  Generator gen(gc);
  SideWork side;
  side.live = live.get();
  if (spec.churn) {
    side.churn_world = live->sut.hosted.get();
    side.publish_budget = churn_publish_budget(opt.seconds) / 2;
  }
  mismatches += run_phase(gen, *live, side, {spec.nominal_qps, 0.5, false}).st.mismatched();
  std::size_t publishes0 = 0;
  std::vector<TracedCounters> c0;
  ad::propagation::PublisherStats pub0;
  std::uint64_t drops0 = 0;
  PhaseResult tr;
  for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(kRetryPause);
    publishes0 = side.published_at.size();
    c0.clear();
    for (auto& t : live->sut.traced) c0.push_back(t->counters());
    pub0 = live->sut.publisher().stats();
    drops0 = udp_rcvbuf_errors();
    for (auto& t : live->sut.traced) t->clear_spans();
    for (auto& t : live->sut.traced) t->set_tracing(true);
    tr = run_phase(gen, *live, side, {spec.nominal_qps, phase_s, true});
    for (auto& t : live->sut.traced) t->set_tracing(false);
    mismatches += tr.st.mismatched();
    print_phase(attempt == 0 ? "traced" : "rerun", tr);
    if (tr.valid) break;
  }
  const std::uint64_t drops1 = udp_rcvbuf_errors();
  std::vector<TracedCounters> c1;
  for (auto& t : live->sut.traced) c1.push_back(t->counters());
  const auto pub1 = live->sut.publisher().stats();
  const std::size_t publishes = side.published_at.size() - publishes0;
  std::vector<double> publish_us(side.publish_us.begin() + static_cast<long>(publishes0),
                                 side.publish_us.end());
  const double compile_s = live->compile_s;
  live->sut.stop();

  // Span summary and dump.
  std::vector<const SpanBuffer*> buffers;
  std::uint64_t overflow = 0;
  for (auto& t : live->sut.traced) {
    for (const auto* b : t->buffers()) {
      buffers.push_back(b);
      overflow += b->overflow();
    }
  }
  const auto layers = summarize(buffers);
  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string dump = opt.out_dir + "/spans-" + spec.name + ".tsv";
  const bool dumped = write_span_dump(dump, buffers);
  std::size_t span_count = 0;
  for (const auto* b : buffers) span_count += b->spans().size();

  TracedCounters d;
  std::vector<std::uint64_t> worker_delta;
  double worker_skew = 1.0;
  for (std::size_t m = 0; m < c1.size(); ++m) {
    d.udp_packets += c1[m].udp_packets - c0[m].udp_packets;
    d.responses += c1[m].responses - c0[m].responses;
    d.cache_hits += c1[m].cache_hits - c0[m].cache_hits;
    d.interpreted += c1[m].interpreted - c0[m].interpreted;
    d.cache_invalidations += c1[m].cache_invalidations - c0[m].cache_invalidations;
    d.defense_drops += c1[m].defense_drops - c0[m].defense_drops;
    d.sync_max_latency_ns = std::max(d.sync_max_latency_ns, c1[m].sync_max_latency_ns);
  }
  if (spec.machines == 1) worker_skew = tr.skew;
  const double member_skew = spec.machines > 1 ? tr.skew : 1.0;

  const auto mean_ns = [&](std::uint32_t name) {
    const auto& l = layers[name];
    return l.count ? l.total_ns / static_cast<double>(l.count) : 0.0;
  };
  const auto& recv = layers[kNetRecv];
  double self_sum_ns = 0.0;
  for (std::uint32_t n = 0; n < kSpanNameCount; ++n) {
    if (n != kDefenseQueueWait) self_sum_ns += layers[n].self_ns;
  }
  const double packets = static_cast<double>(std::max<std::uint64_t>(1, d.udp_packets));
  // Per answered query, the denominator of sut_cpu_us_per_query: on
  // pop_attack the spans also cover the attack packets shed at enqueue.
  const double answered = static_cast<double>(std::max<std::uint64_t>(1, tr.st.answered()));
  const double span_us_per_query = self_sum_ns / answered / 1e3;
  auto waits = layers[kDefenseQueueWait].durations_ns;
  std::sort(waits.begin(), waits.end());
  auto front = tr.st.probe_front_us, direct = tr.st.probe_direct_us;
  std::sort(front.begin(), front.end());
  std::sort(direct.begin(), direct.end());
  const double responses = static_cast<double>(std::max<std::uint64_t>(1, d.responses));
  const double lookup_ns = zone_lookup_ns(live->sut.store(), oracle.queries);

  const std::vector<std::tuple<std::string, double, std::string>> all = {
      {"gen.lateness_p99_us", tr.lateness_p99_us, "us"},
      {"gen.cpu_us_per_query", static_cast<double>(tr.st.gen_cpu_ns) / 1e3 /
                                   static_cast<double>(std::max<std::uint64_t>(
                                       1, tr.st.sent_legit + tr.st.sent_attack)), "us"},
      {"net.recv_batch_us", mean_ns(kNetRecv) / 1e3, "us"},
      {"net.pkts_per_recv", recv.count ? packets / static_cast<double>(recv.count) : 0.0, "count"},
      {"net.send_batch_us", mean_ns(kNetSend) / 1e3, "us"},
      {"net.worker_skew", worker_skew, "ratio"},
      {"net.kernel_rcvbuf_drops", static_cast<double>(drops1 - drops0), "count"},
      {"dns.decode_ns", mean_ns(kDnsDecode), "ns"},
      {"server.respond_ns.hit", mean_ns(kRespondHit), "ns"},
      {"server.respond_ns.compiled", mean_ns(kRespondCompiled), "ns"},
      {"server.respond_ns.interpreted", mean_ns(kRespondInterpreted), "ns"},
      {"server.cache_hit_ratio", static_cast<double>(d.cache_hits) / responses, "ratio"},
      {"server.interpreted_share", static_cast<double>(d.interpreted) / responses, "ratio"},
      {"server.cache_invalidations_per_publish",
       publishes ? static_cast<double>(d.cache_invalidations) / static_cast<double>(publishes) : 0.0,
       "count"},
      {"zone.lookup_ns", lookup_ns, "ns"},
      {"zone.compile_s", compile_s, "s"},
      {"defense.firewall_ns", mean_ns(kDefenseFirewall), "ns"},
      {"defense.score_ns", mean_ns(kDefenseScore), "ns"},
      {"defense.enqueue_ns", mean_ns(kDefenseEnqueue), "ns"},
      {"defense.next_ns", mean_ns(kDefenseNext), "ns"},
      {"defense.queue_wait_us_p99", quantile_sorted(waits, 0.99) / 1e3, "us"},
      {"defense.attack_shed_ratio",
       tr.st.sent_attack ? static_cast<double>(d.defense_drops) /
                               static_cast<double>(tr.st.sent_attack)
                         : 0.0,
       "ratio"},
      {"defense.legit_shed", static_cast<double>(tr.st.dropped_legit), "count"},
      {"propagation.publish_us", mean_of(publish_us), "us"},
      {"propagation.apply_lag_us", static_cast<double>(d.sync_max_latency_ns) / 1e3, "us"},
      {"propagation.incremental_share",
       pub1.published.value() > pub0.published.value()
           ? static_cast<double>(pub1.incremental.value() - pub0.incremental.value()) /
                 static_cast<double>(pub1.published.value() - pub0.published.value())
           : 0.0,
       "ratio"},
      {"fleet.relay_added_us_p50",
       quantile_sorted(front, 0.5) - quantile_sorted(direct, 0.5), "us"},
      {"fleet.relay_added_us_p99",
       quantile_sorted(front, 0.99) - quantile_sorted(direct, 0.99), "us"},
      {"fleet.member_skew", member_skew, "ratio"},
      {"obs.snapshot_us", mean_of(snapshot_us), "us"},
      {"trace.span_self_us_per_query", span_us_per_query, "us"},
      {"trace.unexplained_us_per_query", tr.sut_cpu_us_per_query - span_us_per_query, "us"},
      {"trace.overhead_cpu_us_per_query", tr.sut_cpu_us_per_query - ref.sut_cpu_us_per_query, "us"},
      {"trace.overhead_p50_us", tr.p50_us - ref.p50_us, "us"},
  };

  std::printf("per-layer (%s, traced loop; spans=%zu overflow=%llu dump=%s%s):\n",
              spec.name.c_str(), span_count, static_cast<unsigned long long>(overflow),
              dump.c_str(), dumped ? "" : " (write failed)");
  for (std::uint32_t n = 0; n < kSpanNameCount; ++n) {
    const auto& l = layers[n];
    std::printf("  span %-28s count=%-9llu mean=%9.1f ns  self/query=%8.1f ns\n", span_name(n),
                static_cast<unsigned long long>(l.count),
                l.count ? l.total_ns / static_cast<double>(l.count) : 0.0, l.self_ns / answered);
  }
  for (const auto& [name, value, unit] : all) {
    std::printf("  %-40s %12.4f %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("reconciliation (%s, per answered query): span self time %.3f us | traced sut "
              "cpu %.3f us | untraced sut cpu %.3f us | untraced p50 %.2f us | unexplained %.3f "
              "us | %.3f packets received per answer\n",
              spec.name.c_str(), span_us_per_query, tr.sut_cpu_us_per_query,
              ref.sut_cpu_us_per_query, ref.p50_us, tr.sut_cpu_us_per_query - span_us_per_query,
              packets / answered);
  std::printf("tracing overhead (%s): cpu %+.3f us/query, p50 %+.2f us, p99 %+.2f us\n",
              spec.name.c_str(), tr.sut_cpu_us_per_query - ref.sut_cpu_us_per_query,
              tr.p50_us - ref.p50_us, tr.p99_us - ref.p99_us);

  if (!ref.valid || !tr.valid) {
    std::printf("INVALID RUN: %s (not published)\n",
                (!ref.valid ? ref.why_invalid : tr.why_invalid).c_str());
    return 3;
  }
  // Only the layers every workload exercises go to the machine-readable
  // line (see perfbench/README.md); the rest are printed above.
  static const char* kReported[] = {
      "gen.lateness_p99_us", "gen.cpu_us_per_query", "net.recv_batch_us", "net.pkts_per_recv",
      "net.send_batch_us", "net.worker_skew", "dns.decode_ns", "server.respond_ns.hit",
      "server.cache_hit_ratio", "zone.lookup_ns", "zone.compile_s", "obs.snapshot_us",
      "trace.span_self_us_per_query", "trace.unexplained_us_per_query",
      "trace.overhead_cpu_us_per_query", "trace.overhead_p50_us"};
  std::vector<std::tuple<std::string, double, std::string>> reported;
  for (const char* want : kReported) {
    for (const auto& m : all) {
      if (std::get<0>(m) == want) reported.push_back(m);
    }
  }
  const bool correct = mismatches == 0;
  emit_json(correct, tr.st.sent_legit, tr.st.failed_legit(), reported);
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload" && next(v)) {
      o.workload = v;
    } else if (a == "--seed" && next(v)) {
      o.seed = std::stoull(v);
    } else if (a == "--seconds" && next(v)) {
      o.seconds = std::stod(v);
    } else if (a == "--trace" && next(v)) {
      o.trace = v == "1";
    } else if (a == "--out-dir" && next(v)) {
      o.out_dir = v;
    } else if (a == "--revision" && next(v)) {
      o.revision = v;
    } else if (a == "--build-type" && next(v)) {
      o.build_type = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hot|cold|churn|pop_attack --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--revision SHA] [--build-type TYPE]\n");
    return 2;
  }
  const auto spec = spec_for(opt.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // Disjoint cores: the generator takes the last CPUs, the SUT the rest.
  // The main thread pins itself to the SUT's cores before any server
  // starts, so every SUT thread inherits that mask.
  const auto cpus = allowed_cpus();
  if (cpus.size() < spec->gen_threads + 1) {
    std::fprintf(stderr, "perfbench: needs at least %zu CPUs\n", spec->gen_threads + 1);
    return 2;
  }
  Cores cores;
  cores.gen.assign(cpus.end() - static_cast<long>(spec->gen_threads), cpus.end());
  cores.sut.assign(cpus.begin(), cpus.end() - static_cast<long>(spec->gen_threads));
  pin_current_thread(cores.sut);
  print_header(*spec, opt, cores);
  return opt.trace ? run_traced(*spec, opt, cores) : run_untraced(*spec, opt, cores);
}
