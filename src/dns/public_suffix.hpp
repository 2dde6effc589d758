// Public-suffix rules and effective second-level domain (e2LD) extraction.
//
// The paper aggregates FQDNs to e2LDs ("maps.google.com" -> "google.com",
// "www.bbc.uk.co" -> "bbc.uk.co"). We implement the standard public-suffix
// algorithm (normal rules, "*." wildcard rules, "!" exception rules) over an
// embedded rule set covering the TLDs that appear in the paper and in the
// trace simulator; custom rule sets can be supplied for tests or other data.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/interner.hpp"

namespace dnsembed::dns {

class PublicSuffixList {
 public:
  /// Build from explicit rules in publicsuffix.org syntax
  /// ("com", "co.uk", "*.ck", "!www.ck").
  explicit PublicSuffixList(const std::vector<std::string>& rules);

  /// The built-in rule set (common gTLDs/ccTLDs plus the multi-level
  /// suffixes used by the paper and the trace simulator).
  static const PublicSuffixList& builtin();

  /// Longest matching public suffix of a normalized name, following the
  /// publicsuffix.org algorithm (wildcards and exceptions included). If no
  /// rule matches, the top-level label is treated as the suffix ("*" rule).
  std::string public_suffix(std::string_view name) const;

  /// Effective 2LD: the public suffix plus one label. Returns nullopt when
  /// the name *is* a public suffix (no registrable part).
  std::optional<std::string> e2ld(std::string_view name) const;

  /// e2LD with fallback: names that are themselves suffixes or invalid are
  /// returned normalized as-is. Convenient for bulk log aggregation.
  std::string e2ld_or_self(std::string_view name) const;

  /// Zero-allocation public_suffix over an already-normalized name: every
  /// PSL result (rule match, wildcard expansion, exception remainder, or the
  /// default top-level label) is a contiguous suffix of the input, so the
  /// returned view aliases `name`. The serve hot path uses this.
  std::string_view public_suffix_of(std::string_view name) const noexcept;

  /// Zero-allocation e2ld over an already-normalized name; the returned view
  /// aliases `name`. Empty when the name is invalid or has no registrable
  /// part (same cases where e2ld returns nullopt).
  std::string_view e2ld_view(std::string_view name) const noexcept;

 private:
  using RuleSet = std::unordered_set<std::string, util::TransparentStringHash, std::equal_to<>>;

  RuleSet rules_;       // normal rules
  RuleSet wildcards_;   // "*.X" stored as "X"
  RuleSet exceptions_;  // "!Y" stored as "Y"
  // Most labels of any rule, i.e. of any suffix a probe can match.
  std::size_t max_rule_labels_ = 1;
};

}  // namespace dnsembed::dns
