#include "worlds.hpp"

#include <cstdio>
#include <string>

#include "analysis.hpp"
#include "dns/message.hpp"
#include "dns/wire.hpp"
#include "net/loadgen.hpp"
#include "workload/population.hpp"
#include "zone/zone_builder.hpp"

namespace perfbench {

namespace ad = akadns;

std::unique_ptr<ad::workload::HostedZones> build_hosted(std::size_t zones, std::uint64_t seed) {
  return std::make_unique<ad::workload::HostedZones>(
      ad::workload::HostedZonesConfig{.zone_count = zones}, seed);
}

ReplaySet replay_set(const ad::workload::HostedZones& zones,
                     const ad::workload::ReplayMixConfig& mix) {
  ad::workload::PopulationConfig pc;
  pc.resolver_count = 5'000;
  const ad::workload::ResolverPopulation population(pc, mix.seed ^ 0x5EEDULL);
  const ad::workload::ReplayCorpus corpus(mix, population, zones);
  ReplaySet out;
  for (const auto& e : corpus.entries()) {
    out.queries.wire.push(e.wire);
    out.queries.is_attack.push_back(e.is_attack ? 1 : 0);
    out.queries.source.push_back(e.source);
  }
  for (const auto& answer : ad::net::expected_responses(corpus, zones.store())) {
    out.expected.push(answer);
  }
  return out;
}

namespace {

std::string cold_apex(std::size_t i) {
  static constexpr const char* kTlds[] = {"com.", "net.", "org.", "example.co.uk."};
  return "z" + std::to_string(i) + "." + kTlds[i % 4];
}

std::string ipv4_of(std::size_t i, std::size_t host) {
  return "10." + std::to_string((i >> 8) & 0xFF) + "." + std::to_string(i & 0xFF) + "." +
         std::to_string(host);
}

std::string hex16(std::size_t i) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%x", static_cast<unsigned>(i % 0xFFFF + 1));
  return buf;
}

}  // namespace

std::unique_ptr<ad::zone::ZoneStore> build_cold_world(std::size_t zones, std::uint64_t seed) {
  auto store = std::make_unique<ad::zone::ZoneStore>();
  std::uint64_t rng = seed ^ 0xC01DULL;
  for (std::size_t i = 0; i < zones; ++i) {
    const std::string apex = cold_apex(i);
    const std::string next = cold_apex((i + 1) % zones);
    const auto serial = static_cast<std::uint32_t>(1 + splitmix64(rng) % 1000);
    ad::zone::ZoneBuilder b(apex, serial);
    b.soa("ns1." + apex, "hostmaster." + apex, serial)
        .ns("@", "ns1." + apex)
        .ns("@", "ns2." + apex)
        .a("ns1", ipv4_of(i, 1))
        .a("ns2", ipv4_of(i, 2))
        .a("www", ipv4_of(i, 10))
        .a("www", ipv4_of(i, 11))
        .aaaa("www", "2001:db8::" + hex16(i))
        .a("mail", ipv4_of(i, 20))
        .aaaa("api", "2001:db8:1::" + hex16(i))
        .mx("@", 10, "mail." + apex)
        .txt("@", "v=spf1 a mx -all")
        .a("*.wild", ipv4_of(i, 30))
        .cname("c1", "c2." + apex)
        .cname("c2", "c3." + apex)
        .cname("c3", "c4." + apex)
        .cname("c4", "www." + apex)
        .cname("ext", "www." + next)
        .ns("sub", "ns.sub." + apex)
        .a("ns.sub", ipv4_of(i, 40));
    store->publish(b.build());
  }
  return store;
}

Queries cold_queries(std::size_t zones, std::size_t count, std::uint64_t seed) {
  using ad::dns::RecordType;
  Queries out;
  std::uint64_t rng = seed ^ 0xC0DE5EEDULL;
  const auto pick = [&](std::uint64_t n) { return splitmix64(rng) % n; };
  static constexpr std::uint16_t kEdnsSizes[] = {512, 1232, 4096};
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t zi = pick(zones);
    const std::string apex = cold_apex(zi);
    std::string name;
    RecordType qtype = RecordType::A;
    auto qclass = ad::dns::RecordClass::IN;
    auto opcode = ad::dns::Opcode::Query;
    const auto roll = pick(100);
    if (roll < 20) {
      name = "www." + apex;
    } else if (roll < 30) {
      name = "www." + apex;
      qtype = RecordType::AAAA;
    } else if (roll < 35) {
      name = "mail." + apex;
    } else if (roll < 40) {
      name = "api." + apex;  // AAAA only: NODATA
    } else if (roll < 43) {
      name = "www." + apex;
      qtype = RecordType::MX;  // NODATA
    } else if (roll < 55) {
      name = "n" + std::to_string(splitmix64(rng) % 1'000'000'000) + "." + apex;  // NXDOMAIN
    } else if (roll < 63) {
      name = "h" + std::to_string(pick(1'000'000)) + ".wild." + apex;  // wildcard
    } else if (roll < 71) {
      name = "c1." + apex;  // 4-link CNAME chain
    } else if (roll < 75) {
      name = "ext." + apex;  // cross-zone CNAME
    } else if (roll < 83) {
      name = "host" + std::to_string(pick(1000)) + ".sub." + apex;  // referral + glue
    } else if (roll < 90) {
      name = "x" + std::to_string(pick(1'000'000)) + ".unhosted" + std::to_string(zi) +
             ".test.";  // REFUSED
    } else if (roll < 95) {
      name = apex;
      qtype = roll % 2 ? RecordType::MX : RecordType::TXT;
    } else if (roll < 98) {
      name = "www." + apex;
      qclass = ad::dns::RecordClass::CH;  // interpreted path
    } else {
      name = "www." + apex;
      opcode = ad::dns::Opcode::Status;  // interpreted path (NOTIMP)
    }
    auto msg = ad::dns::make_query(0, ad::dns::DnsName::from(name), qtype);
    msg.questions[0].qclass = qclass;
    msg.header.opcode = opcode;
    if (pick(2) == 0) {
      msg.edns.emplace();
      msg.edns->udp_payload_size = kEdnsSizes[pick(3)];
      if (msg.edns->udp_payload_size == 1232 && pick(2) == 0) {
        msg.edns->client_subnet = ad::dns::ClientSubnet{
            ad::IpAddr(ad::Ipv4Addr(198, 51, static_cast<std::uint8_t>(pick(256)), 0)), 24, 0};
      }
    }
    out.wire.push(ad::dns::encode(msg));
    out.is_attack.push_back(0);
    out.source.push_back(
        ad::Endpoint{ad::IpAddr(ad::Ipv4Addr(192, 0, 2, static_cast<std::uint8_t>(q % 250 + 1))),
                     static_cast<std::uint16_t>(1024 + q % 60000)});
  }
  return out;
}

Arena oracle_answers(const Queries& queries, const ad::zone::ZoneStore& store) {
  ad::server::ResponderConfig cfg;
  cfg.enable_answer_cache = false;
  ad::server::Responder responder(store, cfg);
  Arena out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto wire = responder.respond_wire(queries.wire.at(i), queries.source[i]);
    out.push(wire ? std::span<const std::uint8_t>(*wire) : std::span<const std::uint8_t>{});
  }
  return out;
}

}  // namespace perfbench
