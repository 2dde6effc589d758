#include "dns/name.hpp"

#include <cctype>

namespace dnsembed::dns {

std::string normalize_name(std::string_view name) {
  if (!name.empty() && name.back() == '.') name.remove_suffix(1);
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view normalize_name_view(std::string_view name,
                                     std::span<char> buf) noexcept {
  if (!name.empty() && name.back() == '.') name.remove_suffix(1);
  std::size_t upper = name.size();
  for (std::size_t i = 0; i < name.size(); ++i) {
    const auto u = static_cast<unsigned char>(name[i]);
    if (u >= 'A' && u <= 'Z') {
      upper = i;
      break;
    }
  }
  if (upper == name.size()) return name;  // already lower-case
  if (name.size() > buf.size()) return {};
  for (std::size_t i = 0; i < upper; ++i) buf[i] = name[i];
  for (std::size_t i = upper; i < name.size(); ++i) {
    buf[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(name[i])));
  }
  return {buf.data(), name.size()};
}

namespace {

// ASCII letters, digits, '-' and '_' (an explicit test rather than
// std::isalnum, which is locale-dependent and a call per character).
bool is_label_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '_';
}

}  // namespace

bool is_valid_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  std::size_t label_len = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '.') {
      if (label_len == 0) return false;  // empty label
      label_len = 0;
      continue;
    }
    if (!is_label_char(c)) return false;
    if (label_len == 0 && c == '-') return false;            // leading hyphen
    if ((i + 1 == name.size() || name[i + 1] == '.') && c == '-') return false;  // trailing hyphen
    if (++label_len > kMaxLabelLength) return false;
  }
  return label_len > 0;  // no trailing dot in normalized form
}

std::vector<std::string_view> labels(std::string_view name) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= name.size()) {
    const std::size_t pos = name.find('.', start);
    if (pos == std::string_view::npos) {
      out.push_back(name.substr(start));
      break;
    }
    out.push_back(name.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::size_t label_count(std::string_view name) noexcept {
  if (name.empty()) return 0;
  std::size_t n = 1;
  for (const char c : name) {
    if (c == '.') ++n;
  }
  return n;
}

std::string_view top_level(std::string_view name) noexcept {
  const std::size_t pos = name.rfind('.');
  return pos == std::string_view::npos ? name : name.substr(pos + 1);
}

bool is_subdomain_of(std::string_view child, std::string_view parent) noexcept {
  if (parent.empty()) return false;
  if (child == parent) return true;
  if (child.size() <= parent.size()) return false;
  return child.substr(child.size() - parent.size()) == parent &&
         child[child.size() - parent.size() - 1] == '.';
}

}  // namespace dnsembed::dns
