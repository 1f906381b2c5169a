// Root-hash de-aliasing, sweep-cursor rehash safety, allocation pins for
// names and for a warm and a cold stub visit, byte-accounting truthfulness
// (the accounted bytes against the live heap, and the live heap of a
// capped cache and of a shared store whose probes reclaimed every expired
// proof), and one RSA verification per signature check a resolution needs
// (§4f, §4k).
//
// The `intern` label runs this suite under ASan and TSan in CI: the name
// table sits on the resolver's hottest paths, so lifetime and data-race
// bugs here corrupt every experiment downstream.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "crypto/rng.h"
#include "dns/name.h"
#include "dns/name_map.h"
#include "resolver/cache.h"
#include "resolver/config.h"
#include "resolver/shared_store.h"
#include "sim/clock.h"
#include "workload/stub.h"

// ---------------------------------------------------------------------------
// The byte-accounting tests measure the net live heap a cache or store
// actually allocated.
#include "heap_shim.h"

namespace lookaside {
namespace {

// ---------------------------------------------------------------------------
// Root-hash de-aliasing (§4k audit finding #1)

TEST(NameHash, RootIsDistinctFromEmptyFnvBasis) {
  constexpr std::size_t kFnvBasis = 14695981039346656037ULL;
  EXPECT_EQ(dns::Name::root().hash(), dns::Name::kRootHash);
  EXPECT_NE(dns::Name::root().hash(), kFnvBasis);
  // Default-constructed and parsed roots agree.
  EXPECT_EQ(dns::Name{}.hash(), dns::Name::kRootHash);
  EXPECT_EQ(dns::Name::parse(".").hash(), dns::Name::kRootHash);
  EXPECT_EQ(dns::Name::parse("").hash(), dns::Name::kRootHash);

  // The de-aliasing constant differs from the basis only in bits the table
  // never consumes: slot indexes come from low bits, control fragments from
  // the top 7. Pinning both halves here keeps future "improvements" from
  // silently moving every root-keyed entry (eviction order is a published
  // observable; see NameMapSweepCursor).
  EXPECT_EQ(dns::Name::kRootHash & ((1ULL << 45) - 1),
            kFnvBasis & ((1ULL << 45) - 1));
  EXPECT_EQ(dns::Name::kRootHash >> 57, kFnvBasis >> 57);
}

TEST(NameHash, RootKeyedEntriesResolveInNameHashMap) {
  dns::NameHashMap<int> map;
  map.get_or_insert(dns::Name::root()) = 1;
  map.get_or_insert(dns::Name::parse("com")) = 2;
  map.get_or_insert(dns::Name::parse("example.com")) = 3;
  ASSERT_NE(map.find(dns::Name::root()), nullptr);
  EXPECT_EQ(*map.find(dns::Name::root()), 1);
  EXPECT_EQ(*map.find(dns::Name::parse("com")), 2);
  // A default-constructed Name is the root; it must alias the same entry.
  ASSERT_NE(map.find(dns::Name{}), nullptr);
  EXPECT_EQ(*map.find(dns::Name{}), 1);
}

// ---------------------------------------------------------------------------
// Sweep-cursor rehash safety (§4k audit finding #2)

TEST(NameMapSweep, FullLapVisitsEveryEntryExactlyOnceWithinGeneration) {
  dns::NameHashMap<int> map;
  std::set<std::string> live;
  for (int i = 0; i < 100; ++i) {
    const std::string label = "entry" + std::to_string(i) + ".test";
    map.get_or_insert(dns::Name::parse(label)) = i;
    live.insert(label);
  }

  // One full lap in ragged chunks: every live entry exactly once.
  dns::NameMapSweepCursor cursor;
  std::multiset<std::string> visited;
  std::size_t steps_left = map.slot_count();
  while (steps_left > 0) {
    const std::size_t chunk = std::min<std::size_t>(7, steps_left);
    map.sweep(&cursor, chunk, dns::kSweepAll,
              [&](const dns::Name& key, int, std::uint64_t&) {
                visited.insert(key.internal_text());
                return false;
              });
    steps_left -= chunk;
  }
  EXPECT_EQ(std::set<std::string>(visited.begin(), visited.end()), live);
  EXPECT_EQ(visited.size(), live.size()) << "an entry was visited twice";
}

TEST(NameMapSweep, CursorSurvivesRehashBetweenChunks) {
  dns::NameHashMap<int> map;
  std::map<std::string, int> model;
  auto insert = [&](int i) {
    const std::string label = "key" + std::to_string(i) + ".test";
    map.get_or_insert(dns::Name::parse(label)) = i;
    model[label] = i;
  };
  for (int i = 0; i < 20; ++i) insert(i);

  // Start a sweep, then force rehashes mid-lap by inserting past the load
  // factor. The stale cursor must re-anchor into the new slot ordering (in
  // bounds, generation refreshed) and keep making progress; with the old
  // unmasked cursor this walk indexed out of the live table's range.
  dns::NameMapSweepCursor cursor;
  std::set<std::string> visited;
  const std::uint64_t gen_before = map.generation();
  map.sweep(&cursor, 5, dns::kSweepAll,
            [&](const dns::Name& key, int, std::uint64_t&) {
              visited.insert(key.internal_text());
              return false;
            });
  for (int i = 20; i < 400; ++i) insert(i);  // multiple grow() rehashes
  ASSERT_GT(map.generation(), gen_before);

  // A full post-rehash lap still reaches every entry (re-anchored cursor
  // walks the whole current table; earlier partial visits may repeat, which
  // is the documented cross-generation allowance).
  std::size_t steps_left = map.slot_count();
  while (steps_left > 0) {
    const std::size_t chunk = std::min<std::size_t>(13, steps_left);
    map.sweep(&cursor, chunk, dns::kSweepAll,
              [&](const dns::Name& key, int, std::uint64_t&) {
                visited.insert(key.internal_text());
                return false;
              });
    steps_left -= chunk;
  }
  EXPECT_EQ(cursor.generation, map.generation());
  for (const auto& [label, value] : model) {
    EXPECT_TRUE(visited.count(label) > 0) << label;
  }
}

TEST(NameMapSweep, InterleavedInsertsAndErasingSweepsMatchModel) {
  dns::NameHashMap<int> map;
  std::map<std::string, int> model;
  dns::NameMapSweepCursor cursor;
  int next = 0;

  // Alternate insert bursts (rehash pressure) with erasing sweeps (drop
  // odd values), checking the map against the model after every phase.
  for (int phase = 0; phase < 12; ++phase) {
    for (int i = 0; i < 37; ++i, ++next) {
      const std::string label = "n" + std::to_string(next) + ".test";
      map.get_or_insert(dns::Name::parse(label)) = next;
      model[label] = next;
    }
    std::size_t erased =
        map.sweep(&cursor, map.slot_count() / 2, dns::kSweepAll,
                  [](const dns::Name&, int value, std::uint64_t&) {
                    return value % 2 == 1;
                  });
    // Mirror: one model pass can't know which half of the table the hand
    // covered, so re-check membership entry by entry instead.
    std::size_t gone = 0;
    for (auto it = model.begin(); it != model.end();) {
      const dns::Name key = dns::Name::parse(it->first);
      const int* found = map.find(key);
      if (found == nullptr) {
        ASSERT_EQ(it->second % 2, 1) << "sweep erased an even value";
        it = model.erase(it);
        ++gone;
      } else {
        ASSERT_EQ(*found, it->second);
        ++it;
      }
    }
    ASSERT_EQ(gone, erased);
    ASSERT_EQ(map.size(), model.size());
  }
}

TEST(NameMapSweep, DueTimeWalkMovesTheCursorLikeThePlainWalk) {
  // Two maps with the same insert history have the same slot order. One is
  // walked up to a due time that no slot has reached, the other visits
  // every full slot: the cursors must move in lockstep, including across a
  // rehash in the middle of a lap.
  dns::NameHashMap<int> due_map;
  dns::NameHashMap<int> plain_map;
  std::set<std::string> inserted_since;
  auto insert = [&](int i) {
    const std::string label = "k" + std::to_string(i) + ".test";
    due_map.get_or_insert(dns::Name::parse(label), 5'000) = i;
    plain_map.get_or_insert(dns::Name::parse(label)) = i;
    inserted_since.insert(label);
  };
  for (int i = 0; i < 40; ++i) insert(i);
  // New slots start due at 0; one full lap sets every due time past the
  // walk's horizon.
  dns::NameMapSweepCursor raise;
  due_map.sweep(&raise, due_map.slot_count(), dns::kSweepAll,
                [](const dns::Name&, int, std::uint64_t& due) {
                  due = 1'000;
                  return false;
                });
  inserted_since.clear();

  dns::NameMapSweepCursor due_cursor;
  dns::NameMapSweepCursor plain_cursor;
  std::set<std::string> due_visits;
  std::size_t plain_visits = 0;
  auto walk = [&](std::size_t chunk) {
    due_map.sweep(&due_cursor, chunk, 999,
                  [&](const dns::Name& key, int, std::uint64_t& due) {
                    due_visits.insert(key.internal_text());
                    due = 1'000;
                    return false;
                  });
    plain_map.sweep(&plain_cursor, chunk, dns::kSweepAll,
                    [&](const dns::Name&, int, std::uint64_t&) {
                      ++plain_visits;
                      return false;
                    });
    ASSERT_EQ(due_cursor.slot, plain_cursor.slot);
    ASSERT_EQ(due_cursor.generation, plain_cursor.generation);
  };
  for (int chunk = 0; chunk < 5; ++chunk) walk(7);  // half a lap
  EXPECT_TRUE(due_visits.empty()) << "no slot was due";
  EXPECT_GT(plain_visits, 0u);

  const std::uint64_t generation = due_map.generation();
  for (int i = 40; i < 200; ++i) insert(i);  // several grow() rehashes
  ASSERT_GT(due_map.generation(), generation);
  ASSERT_EQ(due_map.generation(), plain_map.generation());
  ASSERT_EQ(due_map.slot_count(), plain_map.slot_count());

  // Both stale cursors re-anchor to the same slot. The rehash carried the
  // raised due times, so a full lap visits exactly the slots inserted
  // since, which start due at 0 whatever due time their insert asked for.
  std::size_t steps_left = due_map.slot_count();
  while (steps_left > 0) {
    const std::size_t chunk = std::min<std::size_t>(13, steps_left);
    walk(chunk);
    steps_left -= chunk;
  }
  EXPECT_EQ(due_visits, inserted_since);
}

TEST(NameMapSweep, StoresLowerTheDueTimeAndVisitsRaiseIt) {
  dns::NameHashMap<int> map;
  const dns::Name key = dns::Name::parse("due.test");
  map.get_or_insert(key) = 1;
  dns::NameMapSweepCursor cursor;
  std::size_t visits = 0;
  auto lap = [&](std::uint64_t due_by, std::uint64_t raise_to) {
    map.sweep(&cursor, map.slot_count(), due_by,
              [&](const dns::Name&, int, std::uint64_t& due) {
                ++visits;
                due = raise_to;
                return false;
              });
  };
  lap(0, 700);  // new slots are due at 0
  EXPECT_EQ(visits, 1u);
  lap(699, 700);  // not due yet: passed untouched
  EXPECT_EQ(visits, 1u);
  map.get_or_insert(key, 800);  // a later expiry leaves the due time alone
  lap(699, 700);
  EXPECT_EQ(visits, 1u);
  map.get_or_insert(key, 300);  // an earlier one lowers it
  lap(299, 700);
  EXPECT_EQ(visits, 1u);
  lap(300, 700);
  EXPECT_EQ(visits, 2u);
  lap(dns::kSweepAll, 700);  // kSweepAll visits whatever is stored
  EXPECT_EQ(visits, 3u);
}

// ---------------------------------------------------------------------------
// Block due bounds (§4f): a sweep passes a block of 32 slots whose bound is
// past its horizon with one load, and must still visit exactly what the
// slot walk visits.

/// Replays one seeded schedule on two maps with the same history. `bounded`
/// is swept with each call's `due_by`; `reference` is swept with kSweepAll
/// and filtered by the test's own model of each key's due time. After every
/// call both must have visited the same keys in the same order and left
/// their cursors on the same slot and generation. `*bounded_calls`
/// receives the number of calls that could pass a block (a table of 32
/// slots or more, a horizon short of kSweepAll), so callers can check that
/// the bounds were exercised.
void replay_bounded_sweep(std::uint64_t seed, std::size_t key_pool,
                          std::size_t steps, std::size_t* bounded_calls) {
  dns::NameHashMap<int> bounded;
  dns::NameHashMap<int> reference;
  std::map<std::string, std::uint64_t> due;  // the model: each key's due time
  dns::NameMapSweepCursor bounded_cursor;
  dns::NameMapSweepCursor reference_cursor;
  crypto::SplitMix64 rng(seed);
  *bounded_calls = 0;
  std::uint64_t call = 0;

  const auto key_of = [](std::uint64_t n) {
    std::string key = std::to_string(n);
    key.insert(0, 1, 'k');
    return key.append(".test");
  };
  // The callback's decision for `key` in sweep call `call`: erase, or
  // raise the due time by 1-200 (which may or may not pass the horizon).
  const auto decide = [](const std::string& key, std::uint64_t call) {
    std::uint64_t h = 14695981039346656037ULL ^ call;
    for (const char c : key) h = (h ^ static_cast<unsigned char>(c)) *
                                 1099511628211ULL;
    return h;
  };
  // Inserts or lowers `key` in both maps and the model: a new slot starts
  // due at 0 whatever `d` asks; an existing one takes the earlier of its
  // due time and `d`.
  const auto insert = [&](const std::string& key, std::uint64_t d) {
    const dns::Name name = dns::Name::parse(key);
    bounded.get_or_insert(name, d);
    reference.get_or_insert(name, d);
    const auto it = due.find(key);
    if (it == due.end()) {
      due[key] = 0;
    } else {
      it->second = std::min(it->second, d);
    }
  };
  const auto stored_range = [&] {
    std::uint64_t lo = dns::kSweepAll;
    std::uint64_t hi = 0;
    for (const auto& [key, d] : due) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    return std::make_pair(lo, hi);
  };

  for (std::size_t step = 0; step < steps; ++step) {
    const std::uint64_t event = rng.next_below(100);
    if (event < 30) {
      const std::string key = key_of(rng.next_below(key_pool));
      insert(key, rng.next_below(4'000));
    } else if (event < 38) {
      const std::string key = key_of(rng.next_below(key_pool));
      const dns::Name name = dns::Name::parse(key);
      ASSERT_EQ(bounded.erase(name), reference.erase(name));
      due.erase(key);
    } else if (event < 40) {
      // A burst past the load factor: rehashes in the middle of a lap.
      const std::size_t burst = 1 + rng.next_below(key_pool / 4 + 1);
      for (std::size_t i = 0; i < burst; ++i) {
        insert(key_of(rng.next_below(key_pool)), 100);
      }
    } else if (event < 41) {
      bounded.clear();
      reference.clear();
      due.clear();
    } else {
      static constexpr std::size_t kChunks[] = {1, 7, 13, 32, 64, 0};
      std::size_t chunk = kChunks[rng.next_below(6)];
      if (chunk == 0) chunk = bounded.slot_count();
      const auto [lo, hi] = stored_range();
      std::uint64_t due_by = dns::kSweepAll;
      switch (rng.next_below(4)) {
        case 0: due_by = lo == 0 || lo == dns::kSweepAll ? 0 : lo - 1; break;
        case 1: due_by = hi == 0 ? 0 : rng.next_below(hi + 1); break;
        case 2: due_by = hi + 1 + rng.next_below(1'000); break;
        default: break;
      }
      ++call;
      if (bounded.slot_count() >= 32 && due_by != dns::kSweepAll) {
        ++*bounded_calls;
      }
      std::vector<std::string> bounded_visits;
      std::map<std::string, std::uint64_t> reference_due = due;
      const std::size_t bounded_erased = bounded.sweep(
          &bounded_cursor, chunk, due_by,
          [&](const dns::Name& name, int, std::uint64_t& slot_due) {
            const std::string& key = name.internal_text();
            bounded_visits.push_back(key);
            EXPECT_EQ(slot_due, due.at(key)) << key;
            EXPECT_LE(slot_due, due_by) << key;
            const std::uint64_t h = decide(key, call);
            if (h % 4 == 0) {
              due.erase(key);
              return true;
            }
            slot_due += 1 + h % 200;
            due[key] = slot_due;
            return false;
          });
      std::vector<std::string> reference_visits;
      const std::size_t reference_erased = reference.sweep(
          &reference_cursor, chunk, dns::kSweepAll,
          [&](const dns::Name& name, int, std::uint64_t&) {
            const std::string& key = name.internal_text();
            std::uint64_t& model_due = reference_due.at(key);
            if (model_due > due_by) return false;
            reference_visits.push_back(key);
            const std::uint64_t h = decide(key, call);
            if (h % 4 == 0) {
              reference_due.erase(key);
              return true;
            }
            model_due += 1 + h % 200;
            return false;
          });
      ASSERT_EQ(bounded_visits, reference_visits)
          << "seed " << seed << " step " << step << " chunk " << chunk
          << " due_by " << due_by;
      ASSERT_EQ(bounded_erased, reference_erased);
      ASSERT_EQ(due, reference_due);
      ASSERT_EQ(bounded_cursor.slot, reference_cursor.slot);
      ASSERT_EQ(bounded_cursor.generation, reference_cursor.generation);
    }
    ASSERT_EQ(bounded.size(), due.size());
    ASSERT_EQ(reference.size(), due.size());
    ASSERT_EQ(bounded.slot_count(), reference.slot_count());
    ASSERT_EQ(bounded.generation(), reference.generation());
  }
}

TEST(NameMapSweep, BlockBoundsVisitWhatTheSlotWalkVisits) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::size_t bounded_calls = 0;
    replay_bounded_sweep(seed, 1'500, 6'000, &bounded_calls);
    if (HasFatalFailure()) return;
    EXPECT_GT(bounded_calls, 1'000u) << "seed " << seed;
  }
}

TEST(NameMapSweep, MapUnderOneBlockSweepsLikeTheSlotWalk) {
  // Ten keys never fill a 16-slot table past its load factor, so the map
  // keeps no bounds and every call walks slot by slot, wrapping on the
  // 32- and 64-slot chunks.
  for (const std::uint64_t seed : {5u, 6u}) {
    std::size_t bounded_calls = 0;
    replay_bounded_sweep(seed, 10, 3'000, &bounded_calls);
    if (HasFatalFailure()) return;
    EXPECT_EQ(bounded_calls, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Allocation pins (§4k): a Name is its text, so copying one costs what
// copying the text costs, and reading its labels costs nothing.

/// Allocations made while `f` runs.
template <typename F>
long allocations_of(F&& f) {
  const long before = heap_shim::allocations();
  f();
  return heap_shim::allocations() - before;
}

/// Names of every shape the workloads copy: root, TLD, universe SLD, www
/// host, DLV-suffixed SLD and host, provider nameserver host and a 63-octet
/// label.
std::vector<dns::Name> pinned_names() {
  std::vector<dns::Name> names;
  for (const std::string& text :
       {std::string(), std::string("de"), std::string("site-2s-k7.com"),
        std::string("www.site-2s-k7.com"),
        std::string("site-2s-k7.com.dlv.isc.org"),
        std::string("www.site-2s-k7.com.dlv.isc.org"),
        std::string("ns1.hostprov1b.net"), std::string(63, 'q') + ".org"}) {
    names.push_back(dns::Name::parse(text));
  }
  return names;
}

TEST(NameAllocations, CopyingANameCostsWhatCopyingItsTextCosts) {
  // The text and the memoized hash are the whole name. Phrased against
  // std::string so the pin holds for any inline-buffer capacity.
  static_assert(sizeof(dns::Name) == sizeof(std::string) + sizeof(std::size_t));
  for (const dns::Name& name : pinned_names()) {
    constexpr int kCopies = 16;
    std::vector<dns::Name> names;
    std::vector<std::string> texts;
    names.reserve(kCopies);
    texts.reserve(kCopies);
    const long name_copies = allocations_of([&] {
      for (int i = 0; i < kCopies; ++i) names.push_back(name);
    });
    const long text_copies = allocations_of([&] {
      for (int i = 0; i < kCopies; ++i) texts.push_back(name.internal_text());
    });
    EXPECT_EQ(name_copies, text_copies) << name.to_text();
    EXPECT_EQ(names.back(), name);
    EXPECT_EQ(texts.back(), name.internal_text());
  }
}

TEST(NameAllocations, ParentAllocatesOnlyItsText) {
  for (const dns::Name& name : pinned_names()) {
    if (name.is_root()) continue;
    std::vector<dns::Name> parents;
    std::vector<std::string> texts;
    parents.reserve(1);
    texts.reserve(1);
    const long parent =
        allocations_of([&] { parents.push_back(name.parent()); });
    const long text = allocations_of(
        [&] { texts.emplace_back(parents.back().internal_text()); });
    EXPECT_EQ(parent, text) << name.to_text();
  }
}

TEST(NameAllocations, LabelsAndCanonicalCompareAllocateNothing) {
  const std::vector<dns::Name> names = pinned_names();
  std::size_t sink = 0;
  const long allocations = allocations_of([&] {
    for (const dns::Name& a : names) {
      sink += a.label_count();
      for (std::size_t i = 0; i < a.label_count(); ++i) {
        sink += a.label(i).size();
      }
      for (const dns::Name& b : names) {
        sink += static_cast<std::size_t>(a.canonical_compare(b) + 1);
      }
    }
  });
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(sink, 0u);
}

TEST(NameAllocations, WarmStubVisitAllocatesItsPinnedCount) {
  // One warm visit of rank 1 in a 1,000-domain bind_yum world: every
  // answer comes from the cache. The count is exact so that copies cannot
  // creep back onto the warm path. A change that moves it on purpose
  // updates kWarmVisitAllocations to the count the failure prints and says
  // why in CHANGES.md.
  constexpr long kWarmVisitAllocations = 6;
  core::UniverseExperiment::Options options;
  options.universe_size = 1'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  core::UniverseExperiment experiment(options);
  const dns::Name domain = experiment.world().universe().domain_at(1);
  (void)experiment.stub().visit(domain);  // cold: fills the caches
  (void)experiment.stub().visit(domain);  // first warm visit
  workload::VisitOutcome outcome;
  const long allocations =
      allocations_of([&] { outcome = experiment.stub().visit(domain); });
  EXPECT_TRUE(outcome.got_address);
  EXPECT_EQ(allocations, kWarmVisitAllocations);
}

TEST(NameAllocations, ColdStubVisitAllocatesItsPinnedCount) {
  // The first visit to rank 2 after rank 1 in a 1,000-domain bind_yum
  // world: the root and TLD material is cached, the SLD is not, so the
  // visit walks referrals, validates and looks aside. The count is exact so
  // that copies cannot creep back onto the cold path; a change that moves
  // it on purpose updates kColdVisitAllocations to the count the failure
  // prints and says why in CHANGES.md.
  constexpr long kColdVisitAllocations = 549;
  core::UniverseExperiment::Options options;
  options.universe_size = 1'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  core::UniverseExperiment experiment(options);
  const workload::Universe& universe = experiment.world().universe();
  (void)experiment.stub().visit(universe.domain_at(1));
  const dns::Name domain = universe.domain_at(2);
  workload::VisitOutcome outcome;
  const long allocations =
      allocations_of([&] { outcome = experiment.stub().visit(domain); });
  EXPECT_TRUE(outcome.got_address);
  EXPECT_EQ(allocations, kColdVisitAllocations);
}

// ---------------------------------------------------------------------------
// Byte-accounting truthfulness (§4f/§4k)

TEST(CacheBytes, AccountingTracksRealHeapFootprint) {
  sim::SimClock clock;
  auto cache = std::make_unique<resolver::ResolverCache>(clock);

  const long long heap_before = heap_shim::live_bytes();
  for (int i = 0; i < 400; ++i) {
    const std::string owner = "name" + std::to_string(i) + ".com.dlv.isc.org";
    const std::string next = "name" + std::to_string(i + 1) + ".com.dlv.isc.org";
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse(next);
    nsec.types = {dns::RRType::kA, dns::RRType::kRrsig, dns::RRType::kNsec};
    cache->store_nsec(dns::Name::parse("dlv.isc.org"),
                      dns::ResourceRecord::make(dns::Name::parse(owner), 3600,
                                                dns::Rdata{nsec}));

    dns::RRset rrset(dns::Name::parse("host" + std::to_string(i) + ".com"),
                     dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(rrset.name(), 3600,
                                        dns::ARdata{0x0A000001u + i}));
    cache->store(rrset, /*validated=*/false);
  }
  const long long heap_delta = heap_shim::live_bytes() - heap_before;
  ASSERT_GT(heap_delta, 0);

  // bytes() is a model, not a malloc ledger: it must stay the same order of
  // magnitude as the real allocation delta — an accounting that drifts to a
  // fraction of (or a multiple of) the true footprint makes the byte cap
  // meaningless.
  const double billed = static_cast<double>(cache->bytes());
  const double actual = static_cast<double>(heap_delta);
  EXPECT_GE(billed, actual * 0.25)
      << "bytes()=" << billed << " vs heap delta " << actual;
  EXPECT_LE(billed, actual * 4.0)
      << "bytes()=" << billed << " vs heap delta " << actual;

  // Destruction returns the footprint: the cache doesn't leak heap that
  // bytes() never billed.
  cache.reset();
  const long long heap_after_destroy = heap_shim::live_bytes() - heap_before;
  EXPECT_LT(static_cast<double>(heap_after_destroy), actual * 0.1);
}

/// NSEC span number `i` under dlv.isc.org: span<i> -> span<i+1>, so every
/// span has its own owner and its own next name.
dns::ResourceRecord dlv_span(int i) {
  dns::NsecRdata nsec;
  nsec.next =
      dns::Name::parse("span" + std::to_string(i + 1) + ".com.dlv.isc.org");
  nsec.types = {dns::RRType::kA, dns::RRType::kRrsig, dns::RRType::kNsec};
  return dns::ResourceRecord::make(
      dns::Name::parse("span" + std::to_string(i) + ".com.dlv.isc.org"), 3600,
      dns::Rdata{nsec});
}

TEST(CacheBytes, CappedCacheHeapStaysNearTheCapUnderNsecChurn) {
  // The byte cap stands in for BIND's max-cache-size, so it has to bound
  // the heap, not only bytes(): once the cache is full, every span it
  // stores evicts older ones, and whatever the evicted spans held must go
  // with them. A side table that keeps each span's `next` name after the
  // span is gone grows the heap by every distinct name ever stored.
  constexpr std::uint64_t kCap = 16 * 1024;
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  cache.set_limits(resolver::CacheLimits{kCap});
  const dns::Name zone = dns::Name::parse("dlv.isc.org");
  int span = 0;
  for (; span < 500; ++span) {
    cache.store_nsec(zone, dlv_span(span));
    cache.maintain();
  }
  ASSERT_LE(cache.bytes(), kCap);

  const long long heap_warm = heap_shim::live_bytes();
  for (; span < 4'500; ++span) {
    cache.store_nsec(zone, dlv_span(span));
    cache.maintain();
  }
  const long long growth = heap_shim::live_bytes() - heap_warm;
  EXPECT_LE(cache.bytes(), kCap);
  EXPECT_LE(growth, static_cast<long long>(kCap))
      << "4,000 spans stored past the cap grew the live heap by " << growth
      << " B while bytes() reads " << cache.bytes();
}

TEST(CacheBytes, SharedStorePurgeReturnsItsHeap) {
  // The shared store reclaims on probe: one coverage check past the last
  // owner walks every expired span, and a cut check meets the expired cut.
  // What they reclaim must give back everything it held.
  resolver::SharedProofStore store;
  const dns::Name zone = dns::Name::parse("dlv.isc.org");
  const dns::Name cut = dns::Name::parse("com.dlv.isc.org");
  const dns::Name past_last = dns::Name::parse("zzz.com.dlv.isc.org");
  const long long heap_before = heap_shim::live_bytes();
  for (int span = 0; span < 4'000; ++span) {
    const dns::ResourceRecord record = dlv_span(span);
    store.store_nsec(zone, record.name,
                     {std::get<dns::NsecRdata>(record.rdata).next,
                      {dns::RRType::kA},
                      /*expires_us=*/1'000,
                      /*shard=*/0});
  }
  store.store_zone_cut(cut, /*expires_us=*/1'000, /*shard=*/0);
  const long long filled = heap_shim::live_bytes() - heap_before;
  ASSERT_GT(filled, 0);

  EXPECT_EQ(store.check_nsec(zone, past_last, dns::RRType::kA,
                             /*now_us=*/2'000, /*probing_shard=*/0),
            resolver::NsecCoverage::kNoProof);
  EXPECT_FALSE(store.has_zone_cut(cut, /*now_us=*/2'000, /*probing_shard=*/0));
  EXPECT_EQ(store.nsec_count(zone), 0u);
  const long long left = heap_shim::live_bytes() - heap_before;
  EXPECT_LE(left, filled / 10)
      << left << " of " << filled << " B stay in use after the probes";
}

TEST(CacheBytes, EvictionOrderUnchangedByInterning) {
  // The cap-sweep Case-2 count is a direct observable of clock-eviction
  // order. This replicates bench_cache_churn's smoke cell (synthesis off,
  // 16 KiB cap) and pins its Case-2 volume to the committed baseline
  // (bench/baselines/BENCH_cache.smoke.json): how the cache stores its
  // names must not move a single eviction.
  core::UniverseExperiment::Options options;
  options.universe_size = 10'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.max_cache_bytes = 16 * 1024;
  core::UniverseExperiment experiment(options);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t rank = 1; rank <= 250; ++rank) {
      (void)experiment.stub().visit(
          experiment.world().universe().domain_at(rank));
    }
    if (round + 1 < 3) experiment.clock().advance_seconds(2'100.0);
  }
  EXPECT_EQ(experiment.analyzer().report().case2_queries, 461u);
}

// ---------------------------------------------------------------------------
// Verify once (§4k)

/// bind_yum over a 10k universe.
core::UniverseExperiment::Options verify_once_options() {
  core::UniverseExperiment::Options options;
  options.universe_size = 10'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  return options;
}

TEST(VerifyOnce, NonexistentSldVerifiesEachDenialRrsetOnce) {
  // A validated NXDOMAIN from a signed TLD verifies its SOA and NSEC RRsets
  // for the denial proof, then caches the NSECs for aggressive reuse
  // without checking them again. With the verdict cache on, a second check
  // of the same RRset would read as a verdict hit.
  core::UniverseExperiment::Options options = verify_once_options();
  options.resolver_config.verdict_cache_entries =
      resolver::ResolverConfig::kDefaultVerdictCacheEntries;
  core::UniverseExperiment experiment(options);

  const dns::Name tld = experiment.world().universe().domain_at(1).parent();
  (void)experiment.stub().visit(tld.with_prefix_label("definitely-not-there"));

  const auto& counters = experiment.resolver().validator().counters();
  EXPECT_EQ(counters.value("verify.batch_unique"), 5u);
  EXPECT_EQ(counters.value("verdict.rsa_skipped"), 0u);
}

TEST(VerifyOnce, FixedChurnWorkloadKeepsItsExactVerifySchedule) {
  // Two rounds, 2,100 s apart, of the top 40 domains plus 8 nonexistent
  // SLDs under the signed TLDs. The counts are virtual-clock deterministic,
  // so any change means the resolver now verifies a different set of
  // (signed data, key) pairs. The verdict cache is off (bind_yum), so
  // every check a resolution makes runs RSA. 40 of the 191 are the SOAs of
  // the run's 40 fresh DS denials, which the descent checks like any other
  // denial (their NSECs it verified already).
  core::UniverseExperiment experiment(verify_once_options());
  const workload::Universe& universe = experiment.world().universe();
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t rank = 1; rank <= 40; ++rank) {
      (void)experiment.stub().visit(universe.domain_at(rank));
    }
    for (std::uint64_t rank = 1; rank <= 8; ++rank) {
      const dns::Name tld = universe.domain_at(rank).parent();
      (void)experiment.stub().visit(tld.with_prefix_label(
          "nxprobe-" + std::to_string(round) + "-" + std::to_string(rank)));
    }
    experiment.clock().advance_seconds(2'100.0);
  }

  const auto& counters = experiment.resolver().validator().counters();
  EXPECT_EQ(counters.value("verify.batch_unique"), 191u);
}

}  // namespace
}  // namespace lookaside
