// Unit and property tests for dns::Name: parsing, hierarchy ops, canonical
// ordering (RFC 4034 §6.1) and wire form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/rng.h"
#include "dns/name.h"
#include "dns/name_map.h"
#include "dns/rdata.h"
#include "workload/universe.h"

namespace lookaside::dns {
namespace {

TEST(NameTest, ParseBasics) {
  const Name name = Name::parse("www.Example.COM");
  EXPECT_EQ(name.to_text(), "www.example.com.");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.label(1), "example");
  EXPECT_EQ(name.label(2), "com");
  EXPECT_FALSE(name.is_root());
}

TEST(NameTest, TrailingDotIgnored) {
  EXPECT_EQ(Name::parse("example.com."), Name::parse("example.com"));
}

TEST(NameTest, RootForms) {
  EXPECT_TRUE(Name::parse("").is_root());
  EXPECT_TRUE(Name::parse(".").is_root());
  EXPECT_EQ(Name::root().to_text(), ".");
  EXPECT_EQ(Name::root().label_count(), 0u);
}

TEST(NameTest, RejectsBadNames) {
  EXPECT_THROW(Name::parse("a..b"), std::invalid_argument);
  EXPECT_THROW(Name::parse(".a"), std::invalid_argument);
  EXPECT_THROW(Name::parse(std::string(64, 'x') + ".com"),
               std::invalid_argument);
  // Total wire length > 255.
  std::string long_name;
  for (int i = 0; i < 10; ++i) long_name += std::string(30, 'a') + ".";
  long_name += "com";
  EXPECT_THROW(Name::parse(long_name), std::invalid_argument);
}

TEST(NameTest, MaxLabelLengthAccepted) {
  EXPECT_NO_THROW(Name::parse(std::string(63, 'x') + ".com"));
}

TEST(NameTest, ParentChain) {
  Name name = Name::parse("a.b.c.example.com");
  name = name.parent();
  EXPECT_EQ(name.to_text(), "b.c.example.com.");
  EXPECT_EQ(name.parent().parent().to_text(), "example.com.");
  EXPECT_TRUE(Name::parse("com").parent().is_root());
  EXPECT_THROW(Name::root().parent(), std::logic_error);
}

TEST(NameTest, PrefixAndConcat) {
  const Name base = Name::parse("example.com");
  EXPECT_EQ(base.with_prefix_label("www").to_text(), "www.example.com.");
  EXPECT_EQ(Name::root().with_prefix_label("org").to_text(), "org.");

  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(base.concat(dlv).to_text(), "example.com.dlv.isc.org.");
  EXPECT_EQ(Name::root().concat(dlv), dlv);
  EXPECT_EQ(dlv.concat(Name::root()), dlv);
}

TEST(NameTest, SubdomainChecks) {
  const Name com = Name::parse("com");
  const Name example = Name::parse("example.com");
  EXPECT_TRUE(example.is_subdomain_of(com));
  EXPECT_TRUE(example.is_subdomain_of(example));
  EXPECT_TRUE(example.is_subdomain_of(Name::root()));
  EXPECT_FALSE(com.is_subdomain_of(example));
  // Label-boundary matters: notexample.com is not under example.com.
  EXPECT_FALSE(Name::parse("notexample.com").is_subdomain_of(example));
  EXPECT_TRUE(Name::parse("a.example.com").is_subdomain_of(example));
}

TEST(NameTest, WithoutSuffix) {
  const Name full = Name::parse("example.com.dlv.isc.org");
  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(full.without_suffix(dlv).to_text(), "example.com.");
  EXPECT_TRUE(dlv.without_suffix(dlv).is_root());
  EXPECT_EQ(full.without_suffix(Name::root()), full);
  EXPECT_THROW(Name::parse("a.com").without_suffix(Name::parse("b.org")),
               std::invalid_argument);
}

TEST(NameTest, CanonicalOrderingRfc4034Example) {
  // RFC 4034 §6.1 gives this exact sorted sequence.
  std::vector<Name> names = {
      Name::parse("example"),       Name::parse("a.example"),
      Name::parse("yljkjljk.a.example"), Name::parse("z.a.example"),
      Name::parse("zabc.a.example"), Name::parse("z.example"),
  };
  std::vector<Name> shuffled = {names[3], names[0], names[5],
                                names[2], names[4], names[1]};
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, names);
}

TEST(NameTest, CanonicalCompareRootFirst) {
  EXPECT_LT(Name::root().canonical_compare(Name::parse("com")), 0);
  EXPECT_EQ(Name::parse("a.com").canonical_compare(Name::parse("A.COM")), 0);
}

TEST(NameTest, CanonicalOrderClustersByTld) {
  // The paper's DLV clustering effect relies on this: all .com names sort
  // together under the DLV apex.
  const Name a = Name::parse("zzz.com.dlv.isc.org");
  const Name b = Name::parse("aaa.net.dlv.isc.org");
  const Name c = Name::parse("aaa.com.dlv.isc.org");
  EXPECT_LT(c.canonical_compare(a), 0);
  EXPECT_LT(a.canonical_compare(b), 0);  // all com.* before net.*
}

TEST(NameTest, WireForm) {
  const Name name = Name::parse("example.com");
  const Bytes wire = name.to_wire();
  const Bytes expected = {7, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
                          3, 'c', 'o', 'm', 0};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire.size(), name.wire_length());
  EXPECT_EQ(Name::root().to_wire(), Bytes{0});
  EXPECT_EQ(Name::root().wire_length(), 1u);
}

TEST(NamePropertyTest, CanonicalCompareIsTotalOrder) {
  crypto::SplitMix64 rng(123);
  std::vector<Name> names;
  const char* tlds[] = {"com", "net", "org"};
  for (int i = 0; i < 60; ++i) {
    std::string text = "d" + std::to_string(rng.next_below(30));
    if (rng.next_below(2) == 0) text = "sub" + std::to_string(i % 5) + "." + text;
    names.push_back(Name::parse(text + "." + tlds[rng.next_below(3)]));
  }
  for (const Name& a : names) {
    for (const Name& b : names) {
      const int ab = a.canonical_compare(b);
      const int ba = b.canonical_compare(a);
      EXPECT_EQ(ab, -ba);
      EXPECT_EQ(ab == 0, a == b || a.to_text() == b.to_text());
      for (const Name& c : names) {
        if (ab < 0 && b.canonical_compare(c) < 0) {
          EXPECT_LT(a.canonical_compare(c), 0);  // transitivity
        }
      }
    }
  }
}

TEST(NamePropertyTest, ParentIsPrefixInverse) {
  crypto::SplitMix64 rng(5);
  for (int i = 0; i < 100; ++i) {
    const Name base = Name::parse("x" + std::to_string(rng.next()) + ".com");
    const std::string label = "l" + std::to_string(rng.next_below(1000));
    EXPECT_EQ(base.with_prefix_label(label).parent(), base);
  }
}

TEST(NameHashTest, MemoizedHashMatchesCanonicalText) {
  // Every construction path must leave hash() consistent with the
  // lowercase text — hierarchy ops included, since cache keys are often
  // derived names (parent zones, DLV-translated names).
  const Name a = Name::parse("WWW.Example.COM");
  EXPECT_EQ(a.hash(), Name::parse("www.example.com").hash());
  EXPECT_EQ(a.parent().hash(), Name::parse("example.com").hash());
  EXPECT_EQ(a.parent().parent().hash(), Name::parse("com").hash());
  EXPECT_EQ(Name::root().hash(), Name{}.hash());
  EXPECT_EQ(a.with_prefix_label("Sub").hash(),
            Name::parse("sub.www.example.com").hash());
  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(Name::parse("example.com").concat(dlv).hash(),
            Name::parse("example.com.dlv.isc.org").hash());
  EXPECT_EQ(Name::parse("example.com.dlv.isc.org").without_suffix(dlv).hash(),
            Name::parse("example.com").hash());
  // Unequal names should essentially never collide in a small corpus.
  std::set<std::size_t> hashes;
  for (int i = 0; i < 1'000; ++i) {
    hashes.insert(Name::parse("d" + std::to_string(i) + ".com").hash());
  }
  EXPECT_EQ(hashes.size(), 1'000u);
}

// ---------------------------------------------------------------------------
// Known answers for name order, labels, parents, wire form and hashes. The
// digests were recorded on the label-offset representation and must hold
// for any representation of Name.

/// FNV-1a 64 over length-prefixed fields.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void add(std::string_view bytes) {
    add(bytes.size());
    for (const char c : bytes) byte(static_cast<std::uint8_t>(c));
  }
  void add(const Bytes& bytes) {
    add(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// A seeded corpus of 4,000-odd names: universe SLDs, their www hosts and
/// DLV-suffixed forms, provider nameserver hosts, wire-decoded names whose
/// labels hold '-', upper case and octets 0x80 and above, a 63-octet label,
/// 127-label names, and every name of up to three labels over a small label
/// set, so that names are label prefixes and suffixes of one another.
std::vector<Name> known_answer_corpus() {
  std::vector<Name> names;
  crypto::SplitMix64 rng(26);
  const workload::Universe universe({/*seed=*/42, /*size=*/100'000});
  const Name dlv = Name::parse("dlv.isc.org");
  for (int i = 0; i < 1'000; ++i) {
    const Name sld = universe.domain_at(1 + rng.next_below(universe.size()));
    names.push_back(sld);
    names.push_back(sld.concat(dlv));
    if (i % 4 == 0) names.push_back(sld.with_prefix_label("www"));
  }
  for (std::uint64_t provider = 0; provider < 300; ++provider) {
    names.push_back(universe.provider_ns_host(provider * 7));
  }

  constexpr std::string_view kWireAlphabet = "abyzAZ09-";
  for (int i = 0; i < 1'200; ++i) {
    Bytes wire;
    const std::uint64_t labels = 1 + rng.next_below(4);
    for (std::uint64_t l = 0; l < labels; ++l) {
      const std::uint64_t length = 1 + rng.next_below(6);
      wire.push_back(static_cast<std::uint8_t>(length));
      for (std::uint64_t k = 0; k < length; ++k) {
        const std::uint64_t pick = rng.next_below(kWireAlphabet.size() + 3);
        const std::uint64_t octet = pick < kWireAlphabet.size()
                                        ? kWireAlphabet[pick]
                                        : 0x80 + rng.next_below(0x80);
        wire.push_back(static_cast<std::uint8_t>(octet));
      }
    }
    wire.push_back(0);
    ByteReader reader(wire);
    names.push_back(decode_uncompressed_name(reader));
  }

  const std::vector<std::string> small = {"a", "aa", "ab", "b", "a-", "z"};
  for (const std::string& x : small) {
    names.push_back(Name::parse(x));
    for (const std::string& y : small) {
      names.push_back(Name::parse(x + "." + y));
      for (const std::string& z : small) {
        names.push_back(Name::parse(x + "." + y + "." + z));
      }
    }
  }

  names.push_back(Name::root());
  names.push_back(Name::parse(std::string(63, 'q') + ".com"));
  names.push_back(Name::parse(std::string(62, 'q') + ".com"));
  std::string deep = "a";
  std::string deep_mixed = "a";
  for (int i = 1; i < 127; ++i) {
    deep += ".a";
    deep_mixed += '.';
    deep_mixed += static_cast<char>('a' + i % 26);
  }
  names.push_back(Name::parse(deep));
  names.push_back(Name::parse(deep_mixed));
  names.push_back(Name::parse(deep).parent());
  return names;
}

TEST(NameKnownAnswerTest, OrderLabelsParentsWireAndHashes) {
  const std::vector<Name> corpus = known_answer_corpus();
  ASSERT_EQ(corpus.size(), 4'014u);

  Digest order;
  std::vector<Name> sorted = corpus;
  std::sort(sorted.begin(), sorted.end());
  for (const Name& name : sorted) order.add(name.internal_text());
  crypto::SplitMix64 rng(7);
  for (const Name& name : corpus) {
    const Name& other = corpus[rng.next_below(corpus.size())];
    order.add(static_cast<std::uint64_t>(name.canonical_compare(other) + 1));
  }

  Digest labels;
  Digest parents;
  Digest wire;
  Digest hashes;
  for (const Name& name : corpus) {
    labels.add(name.label_count());
    for (std::size_t i = 0; i < name.label_count(); ++i) {
      labels.add(name.label(i));
    }
    wire.add(name.to_wire());
    wire.add(name.wire_length());
    hashes.add(name.hash());
    if (!name.is_root()) {
      const Name parent = name.parent();
      parents.add(parent.internal_text());
      hashes.add(parent.hash());
    }
  }

  EXPECT_EQ(order.value(), 12309400879780477770ULL);
  EXPECT_EQ(labels.value(), 10776291414575047498ULL);
  EXPECT_EQ(parents.value(), 10482198303041956382ULL);
  EXPECT_EQ(wire.value(), 15270750025496679964ULL);
  EXPECT_EQ(hashes.value(), 10006864222599283047ULL);
}

TEST(NameHashMapTest, InsertFindEraseAcrossRehashes) {
  NameHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(Name::parse("absent.com")), nullptr);
  // Grow well past several doublings of the 16-slot initial table.
  for (int i = 0; i < 500; ++i) {
    map.get_or_insert(Name::parse("d" + std::to_string(i) + ".com")) = i;
  }
  EXPECT_EQ(map.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    const int* value = map.find(Name::parse("d" + std::to_string(i) + ".com"));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
  }
  // get_or_insert on a present key returns the existing value.
  map.get_or_insert(Name::parse("d7.com")) = 777;
  EXPECT_EQ(map.size(), 500u);
  EXPECT_EQ(*map.find(Name::parse("d7.com")), 777);
  // Erase half; the rest stay reachable through the tombstones.
  for (int i = 0; i < 500; i += 2) {
    EXPECT_TRUE(map.erase(Name::parse("d" + std::to_string(i) + ".com")));
  }
  EXPECT_FALSE(map.erase(Name::parse("d0.com")));  // already gone
  EXPECT_EQ(map.size(), 250u);
  for (int i = 1; i < 500; i += 2) {
    ASSERT_NE(map.find(Name::parse("d" + std::to_string(i) + ".com")), nullptr)
        << i;
  }
  EXPECT_EQ(map.find(Name::parse("d0.com")), nullptr);
}

TEST(NameHashMapTest, TombstoneSlotsAreReusedAndCompacted) {
  NameHashMap<int> map;
  // Churn far more insert/erase cycles than any capacity could hold
  // without tombstone compaction; the map must stay correct throughout.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      map.get_or_insert(
          Name::parse("r" + std::to_string(round) + "i" + std::to_string(i) +
                      ".com")) = round * 100 + i;
    }
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(map.erase(Name::parse("r" + std::to_string(round) + "i" +
                                        std::to_string(i) + ".com")));
    }
    EXPECT_TRUE(map.empty()) << round;
  }
  map.get_or_insert(Name::parse("survivor.com")) = 1;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_NE(map.find(Name::parse("survivor.com")), nullptr);
}

TEST(NameHashMapTest, ForEachVisitsLiveEntriesOnly) {
  NameHashMap<int> map;
  for (int i = 0; i < 20; ++i) {
    map.get_or_insert(Name::parse("d" + std::to_string(i) + ".com")) = i;
  }
  for (int i = 0; i < 20; i += 2) {
    map.erase(Name::parse("d" + std::to_string(i) + ".com"));
  }
  int sum = 0;
  int count = 0;
  map.for_each([&](const Name& key, int& value) {
    EXPECT_FALSE(key.is_root());
    sum += value;
    ++count;
  });
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sum, 1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19);
}

TEST(NameHashMapTest, RootNameIsAValidKey) {
  NameHashMap<int> map;
  map.get_or_insert(Name::root()) = 42;
  ASSERT_NE(map.find(Name::root()), nullptr);
  EXPECT_EQ(*map.find(Name::root()), 42);
  EXPECT_TRUE(map.erase(Name::root()));
  EXPECT_EQ(map.find(Name::root()), nullptr);
}

}  // namespace
}  // namespace lookaside::dns
