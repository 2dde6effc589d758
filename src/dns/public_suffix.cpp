#include "dns/public_suffix.hpp"

#include <algorithm>

#include "dns/name.hpp"

namespace dnsembed::dns {

PublicSuffixList::PublicSuffixList(const std::vector<std::string>& rules) {
  for (const auto& raw : rules) {
    const std::string rule = normalize_name(raw);
    if (rule.empty()) continue;
    // "!Y" matches Y and "*.X" matches one label plus X: as many labels as
    // the rule is written with.
    max_rule_labels_ = std::max(max_rule_labels_, label_count(rule));
    if (rule[0] == '!') {
      exceptions_.insert(rule.substr(1));
    } else if (rule.rfind("*.", 0) == 0) {
      wildcards_.insert(rule.substr(2));
    } else {
      rules_.insert(rule);
    }
  }
}

const PublicSuffixList& PublicSuffixList::builtin() {
  static const PublicSuffixList instance{{
      // Generic TLDs (incl. the new gTLDs common in abuse feeds).
      "com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
      "io", "ai", "co", "me", "tv", "cc", "ws", "bid", "top", "xyz",
      "club", "site", "online", "pw", "su", "win", "loan", "work",
      "click", "link", "download", "stream", "racing", "party", "science",
      // Country codes.
      "cn", "uk", "jp", "kr", "de", "fr", "ru", "in", "br", "au", "ca",
      "nl", "it", "es", "se", "ch", "tw", "hk", "sg", "us", "eu", "nz",
      // Multi-level country suffixes.
      "com.cn", "net.cn", "org.cn", "edu.cn", "gov.cn", "ac.cn",
      "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
      "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
      "co.kr", "or.kr", "ac.kr",
      "com.au", "net.au", "org.au", "edu.au",
      "com.br", "net.br", "org.br",
      "co.in", "net.in", "org.in",
      "com.tw", "org.tw", "com.hk", "com.sg",
      "co.nz", "org.nz",
      // Private-registry style suffix used by the paper's example
      // (www.bbc.uk.co -> e2LD bbc.uk.co).
      "uk.co",
      // Wildcard + exception examples (actual PSL entries for .ck).
      "*.ck", "!www.ck",
  }};
  return instance;
}

std::string_view PublicSuffixList::public_suffix_of(std::string_view name) const noexcept {
  if (name.empty()) return {};

  // Walk suffixes from longest to shortest; prefer the longest matching
  // rule, with exception rules overriding wildcard rules. Every candidate
  // is a view into `name`, so the heterogeneous set lookups never allocate.
  std::size_t offset = 0;   // index into name where the current suffix starts
  std::string_view best{};  // longest match so far (PSL: longest rule wins)
  // A suffix with more labels than the longest rule can match nothing:
  // start the walk at the longest one that can.
  for (std::size_t n = label_count(name); n > max_rule_labels_; --n) {
    offset = name.find('.', offset) + 1;
  }
  for (;;) {
    const std::string_view suffix = name.substr(offset);
    if (exceptions_.contains(suffix)) {
      // Exception rule: the suffix is everything after the first label.
      const std::size_t dot = suffix.find('.');
      return dot == std::string_view::npos ? std::string_view{} : suffix.substr(dot + 1);
    }
    if (best.empty()) {
      if (rules_.contains(suffix)) {
        best = suffix;
      } else {
        // "*.X": the whole "label.X" is a suffix when the remainder matches X.
        const std::size_t dot = suffix.find('.');
        if (dot != std::string_view::npos && wildcards_.contains(suffix.substr(dot + 1))) {
          best = suffix;
        }
      }
    }
    const std::size_t next = name.find('.', offset);
    if (next == std::string_view::npos) break;
    offset = next + 1;
  }
  if (!best.empty()) return best;
  // Default "*" rule: the TLD alone.
  return top_level(name);
}

std::string_view PublicSuffixList::e2ld_view(std::string_view name) const noexcept {
  if (!is_valid_name(name)) return {};
  const std::string_view suffix = public_suffix_of(name);
  if (suffix.empty() || suffix.size() == name.size()) return {};
  if (name[name.size() - suffix.size() - 1] != '.') return {};
  // One label more than the suffix.
  const std::string_view head = name.substr(0, name.size() - suffix.size() - 1);
  const std::size_t dot = head.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

std::string PublicSuffixList::public_suffix(std::string_view name) const {
  const std::string norm = normalize_name(name);
  return std::string{public_suffix_of(norm)};
}

std::optional<std::string> PublicSuffixList::e2ld(std::string_view name) const {
  const std::string norm = normalize_name(name);
  const std::string_view owner = e2ld_view(norm);
  if (owner.empty()) return std::nullopt;
  return std::string{owner};
}

std::string PublicSuffixList::e2ld_or_self(std::string_view name) const {
  if (auto d = e2ld(name)) return *std::move(d);
  return normalize_name(name);
}

}  // namespace dnsembed::dns
