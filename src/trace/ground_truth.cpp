#include "trace/ground_truth.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/artifact.hpp"

namespace dnsembed::trace {

std::string_view family_kind_name(FamilyKind kind) noexcept {
  switch (kind) {
    case FamilyKind::kDgaCnc: return "dga-cnc";
    case FamilyKind::kSpam: return "spam";
    case FamilyKind::kPhishing: return "phishing";
    case FamilyKind::kFastFlux: return "fast-flux";
    case FamilyKind::kStaticCnc: return "static-cnc";
    case FamilyKind::kApt: return "apt";
    case FamilyKind::kZeroDay: return "zero-day";
    case FamilyKind::kEvasion: return "evasion";
  }
  return "unknown";
}

void GroundTruth::add_benign(std::string domain) {
  if (known_.contains(domain)) return;
  known_.emplace(domain, false);
  benign_.push_back(std::move(domain));
}

void GroundTruth::add_family(MalwareFamily family) {
  for (const auto& domain : family.domains) {
    if (known_.contains(domain)) {
      throw std::invalid_argument{"GroundTruth: domain registered twice: " + domain};
    }
    known_.emplace(domain, true);
    malicious_index_.emplace(domain, family.id);
  }
  families_.push_back(std::move(family));
}

bool GroundTruth::is_malicious(std::string_view domain) const {
  return malicious_index_.contains(std::string{domain});
}

bool GroundTruth::is_known(std::string_view domain) const {
  return known_.contains(std::string{domain});
}

std::optional<std::size_t> GroundTruth::family_of(std::string_view domain) const {
  const auto it = malicious_index_.find(std::string{domain});
  if (it == malicious_index_.end()) return std::nullopt;
  return it->second;
}

std::string_view GroundTruth::scenario_of(std::string_view domain) const {
  const auto it = malicious_index_.find(std::string{domain});
  if (it != malicious_index_.end()) {
    for (const auto& family : families_) {
      if (family.id == it->second) return family_kind_name(family.kind);
    }
    return "unknown";
  }
  const auto known = known_.find(std::string{domain});
  if (known != known_.end()) return "benign";
  return {};
}

std::vector<std::string> GroundTruth::malicious_domains() const {
  std::vector<std::string> out;
  out.reserve(malicious_index_.size());
  for (const auto& family : families_) {
    for (const auto& domain : family.domains) out.push_back(domain);
  }
  return out;
}

namespace {

[[noreturn]] void bad_truth(const std::string& what) {
  throw std::runtime_error{"GroundTruth load: " + what};
}

void expect_header(std::istream& in, const char* keyword, std::size_t& count) {
  std::string word;
  if (!(in >> word >> count) || word != keyword) {
    bad_truth(std::string{"missing '"} + keyword + "' section");
  }
}

std::string read_token(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) bad_truth(std::string{"truncated "} + what);
  return token;
}

}  // namespace

void save_ground_truth(std::ostream& out, const GroundTruth& truth) {
  out << "dnsembed-truth 1\n";
  out << "benign " << truth.benign_domains().size() << '\n';
  for (const auto& domain : truth.benign_domains()) out << domain << '\n';
  out << "families " << truth.families().size() << '\n';
  for (const auto& family : truth.families()) {
    out << "family " << family.id << ' ' << static_cast<int>(family.kind) << ' ' << family.port
        << ' ' << family.name << '\n';
    out << "domains " << family.domains.size() << '\n';
    for (const auto& domain : family.domains) out << domain << '\n';
    out << "ips " << family.ips.size() << '\n';
    for (const auto ip : family.ips) out << ip.value() << '\n';
    out << "victims " << family.victims.size() << '\n';
    for (const auto& victim : family.victims) out << victim << '\n';
  }
}

GroundTruth load_ground_truth(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "dnsembed-truth" || version != 1) {
    bad_truth("bad header");
  }
  GroundTruth truth;
  std::size_t benign_count = 0;
  expect_header(in, "benign", benign_count);
  for (std::size_t i = 0; i < benign_count; ++i) {
    truth.add_benign(read_token(in, "benign list"));
  }
  std::size_t family_count = 0;
  expect_header(in, "families", family_count);
  for (std::size_t f = 0; f < family_count; ++f) {
    MalwareFamily family;
    std::string word;
    int kind = 0;
    if (!(in >> word >> family.id >> kind >> family.port) || word != "family" || kind < 0 ||
        kind > static_cast<int>(FamilyKind::kEvasion)) {
      bad_truth("bad family record " + std::to_string(f));
    }
    family.kind = static_cast<FamilyKind>(kind);
    family.name = read_token(in, "family name");
    std::size_t count = 0;
    expect_header(in, "domains", count);
    for (std::size_t i = 0; i < count; ++i) {
      family.domains.push_back(read_token(in, "family domains"));
    }
    expect_header(in, "ips", count);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t value = 0;
      if (!(in >> value)) bad_truth("truncated family ips");
      family.ips.emplace_back(value);
    }
    expect_header(in, "victims", count);
    for (std::size_t i = 0; i < count; ++i) {
      family.victims.push_back(read_token(in, "family victims"));
    }
    truth.add_family(std::move(family));
  }
  return truth;
}

std::string ground_truth_payload(const GroundTruth& truth) {
  std::ostringstream payload;
  save_ground_truth(payload, truth);
  return payload.str();
}

GroundTruth parse_ground_truth_payload(std::string_view payload, const std::string& context) {
  std::istringstream in{std::string{payload}};
  try {
    return load_ground_truth(in);
  } catch (const std::exception& e) {  // add_family rejects duplicates with logic_error
    util::fsio::note_corrupt_detected();
    throw util::CorruptArtifact{context, e.what()};
  }
}

void save_ground_truth_file(const std::string& path, const GroundTruth& truth) {
  util::save_artifact(path, "ground-truth", ground_truth_payload(truth));
}

GroundTruth load_ground_truth_file(const std::string& path) {
  return parse_ground_truth_payload(util::load_artifact(path, "ground-truth"), path);
}

}  // namespace dnsembed::trace
