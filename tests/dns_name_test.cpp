// Tests for domain-name handling and e2LD extraction (public-suffix rules).
#include <gtest/gtest.h>

#include "dns/name.hpp"
#include "dns/public_suffix.hpp"

namespace dnsembed::dns {
namespace {

TEST(Name, NormalizeLowercasesAndStripsDot) {
  EXPECT_EQ(normalize_name("WWW.Example.COM."), "www.example.com");
  EXPECT_EQ(normalize_name("abc"), "abc");
  EXPECT_EQ(normalize_name("."), "");
}

TEST(Name, ValidityRules) {
  EXPECT_TRUE(is_valid_name("example.com"));
  EXPECT_TRUE(is_valid_name("a-b.c_d.com"));
  EXPECT_TRUE(is_valid_name("xn--p1ai"));
  EXPECT_FALSE(is_valid_name(""));
  EXPECT_FALSE(is_valid_name(".com"));
  EXPECT_FALSE(is_valid_name("a..b"));
  EXPECT_FALSE(is_valid_name("-a.com"));
  EXPECT_FALSE(is_valid_name("a-.com"));
  EXPECT_FALSE(is_valid_name("a b.com"));
  EXPECT_FALSE(is_valid_name("\xC3\xA4.com"));  // LDH is ASCII only
  EXPECT_FALSE(is_valid_name("a!b.com"));
  EXPECT_TRUE(is_valid_name("AZ09.com"));
  EXPECT_FALSE(is_valid_name(std::string(64, 'a') + ".com"));   // label > 63
  EXPECT_TRUE(is_valid_name(std::string(63, 'a') + ".com"));
  std::string long_name;
  for (int i = 0; i < 64; ++i) long_name += "abc.";
  long_name += "com";  // 259 chars
  EXPECT_FALSE(is_valid_name(long_name));
}

TEST(Name, Labels) {
  const auto l = labels("www.example.com");
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[0], "www");
  EXPECT_EQ(l[1], "example");
  EXPECT_EQ(l[2], "com");
  EXPECT_EQ(label_count("www.example.com"), 3u);
  EXPECT_EQ(label_count("com"), 1u);
  EXPECT_EQ(label_count(""), 0u);
  EXPECT_EQ(top_level("www.example.com"), "com");
  EXPECT_EQ(top_level("com"), "com");
}

TEST(Name, SubdomainRelation) {
  EXPECT_TRUE(is_subdomain_of("a.b.com", "b.com"));
  EXPECT_TRUE(is_subdomain_of("b.com", "b.com"));
  EXPECT_TRUE(is_subdomain_of("a.b.com", "com"));
  EXPECT_FALSE(is_subdomain_of("ab.com", "b.com"));  // must match at label boundary
  EXPECT_FALSE(is_subdomain_of("b.com", "a.b.com"));
  EXPECT_FALSE(is_subdomain_of("b.com", ""));
}

TEST(PublicSuffix, SimpleTlds) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("maps.google.com"), "com");
  EXPECT_EQ(psl.e2ld("maps.google.com"), "google.com");
  EXPECT_EQ(psl.e2ld("google.com"), "google.com");
  EXPECT_FALSE(psl.e2ld("com").has_value());
}

TEST(PublicSuffix, MultiLevelSuffixes) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("www.bbc.co.uk"), "co.uk");
  EXPECT_EQ(psl.e2ld("www.bbc.co.uk"), "bbc.co.uk");
  EXPECT_FALSE(psl.e2ld("co.uk").has_value());
  // The paper's example: www.bbc.uk.co -> bbc.uk.co.
  EXPECT_EQ(psl.e2ld("www.bbc.uk.co"), "bbc.uk.co");
}

TEST(PublicSuffix, LongestRuleWins) {
  const auto& psl = PublicSuffixList::builtin();
  // "com.cn" beats "cn".
  EXPECT_EQ(psl.public_suffix("news.sina.com.cn"), "com.cn");
  EXPECT_EQ(psl.e2ld("news.sina.com.cn"), "sina.com.cn");
}

TEST(PublicSuffix, WildcardAndException) {
  const auto& psl = PublicSuffixList::builtin();
  // "*.ck": foo.ck is a public suffix, so bar.foo.ck registers at bar.foo.ck.
  EXPECT_EQ(psl.public_suffix("bar.foo.ck"), "foo.ck");
  EXPECT_EQ(psl.e2ld("baz.bar.foo.ck"), "bar.foo.ck");
  EXPECT_FALSE(psl.e2ld("foo.ck").has_value());
  // "!www.ck": www.ck is registrable despite the wildcard.
  EXPECT_EQ(psl.e2ld("www.ck"), "www.ck");
  EXPECT_EQ(psl.e2ld("a.www.ck"), "www.ck");
}

TEST(PublicSuffix, UnknownTldFallsBackToLastLabel) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("x.example.zzzz"), "zzzz");
  EXPECT_EQ(psl.e2ld("x.example.zzzz"), "example.zzzz");
}

TEST(PublicSuffix, E2ldOrSelfNeverFails) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.e2ld_or_self("Maps.Google.COM"), "google.com");
  EXPECT_EQ(psl.e2ld_or_self("com"), "com");
  EXPECT_EQ(psl.e2ld_or_self("co.uk"), "co.uk");
}

TEST(PublicSuffix, CustomRuleSet) {
  const PublicSuffixList psl{{"test", "multi.test"}};
  EXPECT_EQ(psl.e2ld("a.b.multi.test"), "b.multi.test");
  EXPECT_EQ(psl.e2ld("a.test"), "a.test");
}

TEST(PublicSuffix, DeepNamesReachRulesOfEveryLength) {
  // The suffix walk skips suffixes with more labels than the longest rule
  // (a wildcard "*.X" counts |X| + 1); every rule kind must still match.
  const PublicSuffixList psl{{"a.b.c", "*.w.x.y", "t"}};
  EXPECT_EQ(psl.public_suffix("q.w.e.a.b.c"), "a.b.c");
  EXPECT_EQ(psl.e2ld("q.w.e.a.b.c"), "e.a.b.c");
  EXPECT_EQ(psl.public_suffix("p.q.r.w.x.y"), "r.w.x.y");
  EXPECT_EQ(psl.e2ld("p.q.r.w.x.y"), "q.r.w.x.y");
  EXPECT_EQ(psl.public_suffix("m.n.o.p.t"), "t");
  EXPECT_EQ(psl.public_suffix("m.n.o.p.unknown"), "unknown");
  const PublicSuffixList excepted{{"*.x.y", "!k.l.z.x.y", "*.l.z.x.y"}};
  EXPECT_EQ(excepted.public_suffix("a.b.k.l.z.x.y"), "l.z.x.y");
  EXPECT_EQ(excepted.e2ld("a.b.k.l.z.x.y"), "k.l.z.x.y");
  EXPECT_EQ(excepted.public_suffix("a.b.j.l.z.x.y"), "j.l.z.x.y");
  const PublicSuffixList empty{{}};
  EXPECT_EQ(empty.public_suffix("a.b.c"), "c");
  EXPECT_EQ(empty.e2ld("a.b.c"), "b.c");
}

TEST(PublicSuffix, PaperExamplesFromAbuseFeeds) {
  const auto& psl = PublicSuffixList::builtin();
  // Spam cluster TLDs (.bid) and Conficker DGA TLDs (.ws) from Tables 1-2.
  EXPECT_EQ(psl.e2ld("brvegnholster.bid"), "brvegnholster.bid");
  EXPECT_EQ(psl.e2ld("oorfapjflmp.ws"), "oorfapjflmp.ws");
  EXPECT_EQ(psl.e2ld("www.oorfapjflmp.ws"), "oorfapjflmp.ws");
}

// --- zero-allocation view path (the serve hot path) -----------------------

TEST(NameView, NormalizeViewAliasesInputWhenAlreadyNormalized) {
  char buf[kMaxNameLength];
  const std::string_view input = "www.example.com";
  const std::string_view out = normalize_name_view(input, buf);
  EXPECT_EQ(out, input);
  EXPECT_EQ(out.data(), input.data());  // no copy taken
}

TEST(NameView, NormalizeViewMatchesAllocatingNormalize) {
  char buf[kMaxNameLength];
  for (const std::string_view raw :
       {"WWW.Example.COM.", "abc", ".", "", "MiXeD.CaSe.Uk.Co", "already.lower.cc",
        "Trailing.Dot.", "UPPER"}) {
    EXPECT_EQ(normalize_name_view(raw, buf), normalize_name(raw)) << raw;
  }
}

TEST(NameView, ViewResultsAliasInputOrBuffer) {
  char buf[kMaxNameLength];
  const std::string_view mixed = "A.B.Com";
  const std::string_view out = normalize_name_view(mixed, buf);
  EXPECT_EQ(out, "a.b.com");
  EXPECT_EQ(out.data(), buf);  // lower-casing used the caller's buffer
}

TEST(PublicSuffixView, MatchesStringPathOnNormalizedNames) {
  const auto& psl = PublicSuffixList::builtin();
  for (const std::string name :
       {"maps.google.com", "google.com", "com", "www.bbc.uk.co", "a.b.co.uk", "co.uk",
        "anything.ck", "www.ck", "sub.www.ck", "x.example.zzzz", "zzzz",
        "brvegnholster.bid", "www.oorfapjflmp.ws", "single"}) {
    EXPECT_EQ(std::string{psl.public_suffix_of(name)}, psl.public_suffix(name)) << name;
    const std::string_view owner = psl.e2ld_view(name);
    const auto e2 = psl.e2ld(name);
    if (e2.has_value()) {
      EXPECT_EQ(std::string{owner}, *e2) << name;
      // The view must alias the input buffer, never a temporary.
      EXPECT_GE(owner.data(), name.data()) << name;
      EXPECT_LE(owner.data() + owner.size(), name.data() + name.size()) << name;
    } else {
      EXPECT_TRUE(owner.empty()) << name;
    }
  }
}

TEST(PublicSuffixView, RandomizedParityWithStringPath) {
  const auto& psl = PublicSuffixList::builtin();
  // Deterministic pseudo-random names over a suffix-rich alphabet; the view
  // path and the allocating path must agree on every one, including invalid
  // shapes.
  std::uint64_t state = 0x5eedULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const char* parts[] = {"www", "a", "b-c", "x_y", "ck", "uk", "co", "com", "zz", "-bad", ""};
  for (int round = 0; round < 2000; ++round) {
    std::string name;
    const int n = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < n; ++i) {
      if (i > 0) name += '.';
      name += parts[next() % (sizeof(parts) / sizeof(parts[0]))];
    }
    // The view path requires pre-normalized input (the serve engine always
    // normalizes first); the string path normalizes internally.
    const std::string norm = normalize_name(name);
    const std::string_view owner = psl.e2ld_view(norm);
    const auto e2 = psl.e2ld(name);
    if (e2.has_value()) {
      EXPECT_EQ(std::string{owner}, *e2) << name;
    } else {
      EXPECT_TRUE(owner.empty()) << name;
    }
    EXPECT_EQ(std::string{psl.public_suffix_of(norm)}, psl.public_suffix(name)) << name;
  }
}

}  // namespace
}  // namespace dnsembed::dns
