// Zone worlds and query corpora for the four workloads, all derived from
// the workload seed, plus the reference answers (the oracle) that every
// received answer is byte-compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "generator.hpp"
#include "server/responder.hpp"
#include "workload/replay.hpp"
#include "workload/zones.hpp"
#include "zone/zone_store.hpp"

namespace perfbench {

/// Queries ready for the generator: wires (id 0), attack flags, and the
/// modelled sources the oracle answers for.
struct Queries {
  Arena wire;
  std::vector<std::uint8_t> is_attack;
  std::vector<akadns::Endpoint> source;
  std::size_t size() const noexcept { return is_attack.size(); }
};

/// The synthetic hosted-zone world of hot, churn and pop_attack.
std::unique_ptr<akadns::workload::HostedZones> build_hosted(std::size_t zones,
                                                            std::uint64_t seed);

/// A ReplayCorpus over `zones` flattened for the generator; its reference
/// answers come from net::expected_responses.
struct ReplaySet {
  Queries queries;
  Arena expected;
};
ReplaySet replay_set(const akadns::workload::HostedZones& zones,
                     const akadns::workload::ReplayMixConfig& mix);

/// cold: `zones` ZoneBuilder zones, each with apex NS + glue, A/AAAA/MX/TXT
/// hosts, a wildcard, a 4-link CNAME chain, a cross-zone CNAME and a
/// delegated child with glue.
std::unique_ptr<akadns::zone::ZoneStore> build_cold_world(std::size_t zones,
                                                          std::uint64_t seed);
/// cold's corpus: A/AAAA answers, NODATA, NXDOMAIN, wildcards, CNAME
/// chains, referrals, REFUSED, non-IN class and non-Query opcode queries
/// (the interpreted path), with EDNS and ECS variants.
Queries cold_queries(std::size_t zones, std::size_t count, std::uint64_t seed);

/// Reference answers: the cache-less sim Responder over every query — the
/// rule net::expected_responses applies to a ReplayCorpus.
Arena oracle_answers(const Queries& queries, const akadns::zone::ZoneStore& store);

}  // namespace perfbench
