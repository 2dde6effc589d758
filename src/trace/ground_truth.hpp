// Ground-truth registry produced alongside the synthetic trace: which e2LDs
// are malicious, which family/campaign owns them, and the infrastructure
// (IPs, ports, victims) behind each family. This substitutes for the
// paper's vendor blacklist + ThreatBook family reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/ipv4.hpp"

namespace dnsembed::trace {

enum class FamilyKind : std::uint8_t {
  kDgaCnc,     // domain-fluxing C&C (Conficker-style)
  kSpam,       // spam campaign cluster
  kPhishing,   // phishing site cluster
  kFastFlux,   // fast-flux hosted malware
  kStaticCnc,  // fixed-domain C&C
  kApt,        // low-and-slow APT C&C: statistically benign-looking
               // (long-lived wordlike .com domains, stable IPs, normal
               // TTLs, rare diurnal contacts) — only the victim-cohort
               // structure gives it away
  kZeroDay,    // zero-day campaign: completely silent until its activation
               // day, then beacons like a static C&C. Fresh domains with no
               // history; the one prior signal is that its serving IPs are
               // re-used from earlier families' low-reputation pools
               // (MANTIS-style infrastructure reuse).
  kEvasion,    // graph-evasion campaign: victim cohorts wrap C&C contacts
               // in queries to popular benign cover sites to poison the
               // similarity graphs with benign co-occurrence edges
               // (HinDom threat model; tunable mimicry rate).
};

std::string_view family_kind_name(FamilyKind kind) noexcept;

struct MalwareFamily {
  std::size_t id = 0;
  FamilyKind kind = FamilyKind::kDgaCnc;
  std::string name;                   // e.g. "family03-spam"
  std::vector<std::string> domains;   // e2LDs operated by the family
  std::vector<dns::Ipv4> ips;         // serving IP pool
  std::vector<std::string> victims;   // compromised device ids
  std::uint16_t port = 80;            // C&C / delivery port
};

class GroundTruth {
 public:
  /// Register a benign e2LD (site, third-party, app).
  void add_benign(std::string domain);

  /// Register a malicious family (domains become malicious labels).
  void add_family(MalwareFamily family);

  bool is_malicious(std::string_view domain) const;
  bool is_known(std::string_view domain) const;

  /// Family owning a malicious domain.
  std::optional<std::size_t> family_of(std::string_view domain) const;

  /// Scenario tag for a domain: the owning family's kind name for malicious
  /// domains ("dga-cnc", "zero-day", ...), "benign" for registered benign
  /// domains, "" for unknown domains. Tags are stable identifiers carried
  /// through labeled sets and the per-scenario report section.
  std::string_view scenario_of(std::string_view domain) const;

  const std::vector<MalwareFamily>& families() const noexcept { return families_; }
  const std::vector<std::string>& benign_domains() const noexcept { return benign_; }

  std::vector<std::string> malicious_domains() const;

  std::size_t benign_count() const noexcept { return benign_.size(); }
  std::size_t malicious_count() const noexcept { return malicious_index_.size(); }

 private:
  std::vector<std::string> benign_;
  std::vector<MalwareFamily> families_;
  std::unordered_map<std::string, std::size_t> malicious_index_;  // domain -> family id
  std::unordered_map<std::string, bool> known_;
};

/// Text serialization of the registry (benign list + families with their
/// infrastructure), preserving registration order exactly so a reloaded
/// truth drives labeling deterministically. load throws std::runtime_error
/// on malformed input.
void save_ground_truth(std::ostream& out, const GroundTruth& truth);
GroundTruth load_ground_truth(std::istream& in);

/// Durable artifact persistence (kind "ground-truth"): atomic, checksummed.
/// The parse and load forms throw util::CorruptArtifact on damage.
std::string ground_truth_payload(const GroundTruth& truth);
GroundTruth parse_ground_truth_payload(std::string_view payload, const std::string& context);
void save_ground_truth_file(const std::string& path, const GroundTruth& truth);
GroundTruth load_ground_truth_file(const std::string& path);

}  // namespace dnsembed::trace
