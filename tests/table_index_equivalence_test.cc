// Equivalence proof for the indexed match-action lookup: randomized
// entry sets (mixed exact/ternary/LPM/range keys, overlapping
// priorities, wildcards, interleaved installs and removes) are driven
// through both the indexed Lookup path and the reference linear scan
// (LookupReference), asserting identical winning entries and identical
// hit/miss/default counters. The parameterized suite totals 10k+
// randomized lookup rounds. Also covers the per-worker flow decision
// cache: epoch invalidation on admission/departure, replay identity,
// and the pipeline.cache.* counter export.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/packet.h"
#include "switchsim/flow_cache.h"
#include "switchsim/pipeline.h"
#include "switchsim/table.h"

namespace sfp::switchsim {
namespace {

using net::Ipv4Address;

/// Candidate key fields with small value domains so random packets
/// actually collide with installed entries.
struct FieldDomain {
  FieldId field;
  MatchKind kind;
  std::uint64_t max_value;  // packet/entry values drawn from [0, max]
};

const FieldDomain kFieldPool[] = {
    {FieldId::kTenantId, MatchKind::kExact, 3},
    {FieldId::kPass, MatchKind::kExact, 2},
    {FieldId::kFlowClass, MatchKind::kExact, 3},
    {FieldId::kSrcIp, MatchKind::kTernary, 0xFFFFFFFF},
    {FieldId::kDstIp, MatchKind::kLpm, 0xFFFFFFFF},
    {FieldId::kDstPort, MatchKind::kRange, 2000},
    {FieldId::kSrcPort, MatchKind::kRange, 2000},
    {FieldId::kIpProto, MatchKind::kTernary, 0xFF},
};

/// Random key spec: 2..5 distinct fields from the pool. Most draws
/// contain an exact field (SFP tables always carry the exact
/// (tenant, pass) prefix), but some have none at all — the index must
/// be correct for both.
std::vector<FieldDomain> RandomSpec(Rng& rng) {
  std::vector<FieldDomain> pool(std::begin(kFieldPool), std::end(kFieldPool));
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[static_cast<std::size_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(i) - 1))]);
  }
  const std::size_t arity = static_cast<std::size_t>(rng.UniformInt(2, 5));
  pool.resize(arity);
  return pool;
}

/// Random pattern for one field: wildcard with probability ~0.35,
/// else a concrete (possibly partial) pattern in the field's domain.
FieldMatch RandomMatch(Rng& rng, const FieldDomain& domain) {
  const bool wildcard = rng.Bernoulli(0.35);
  switch (domain.kind) {
    case MatchKind::kExact:
      // Exact fields can be wildcarded too (FieldMatch::Any(), the
      // data plane's per-pass catch-all shape) — such entries live in
      // the table's wildcard side tier and must agree with the
      // reference scan like everything else.
      if (wildcard) return FieldMatch::Any();
      return FieldMatch::Exact(
          static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(domain.max_value))));
    case MatchKind::kTernary: {
      if (wildcard) return FieldMatch::Ternary(0, 0);
      // Byte-granular masks give overlapping patterns.
      std::uint64_t mask = 0;
      for (int b = 0; b < 4; ++b) {
        if (rng.Bernoulli(0.5)) mask |= 0xFFULL << (8 * b);
      }
      return FieldMatch::Ternary(rng.Next() & domain.max_value, mask & domain.max_value);
    }
    case MatchKind::kLpm: {
      if (wildcard) return FieldMatch::Lpm(0, 0);
      const int prefix = static_cast<int>(rng.UniformInt(1, 32));
      return FieldMatch::Lpm(rng.Next() & domain.max_value, prefix);
    }
    case MatchKind::kRange: {
      if (wildcard) return FieldMatch::Any();
      const auto lo = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(domain.max_value)));
      const auto hi = lo + static_cast<std::uint64_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(domain.max_value / 4)));
      return FieldMatch::Range(lo, hi);
    }
  }
  return FieldMatch::Any();
}

/// A random packet + metadata whose field values stay inside the
/// domains the entries draw from.
std::pair<net::Packet, PacketMeta> RandomPacket(Rng& rng) {
  auto packet = net::MakeTcpPacket(
      static_cast<std::uint16_t>(rng.UniformInt(0, 3)),
      Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
      Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
      static_cast<std::uint16_t>(rng.UniformInt(0, 2000)),
      static_cast<std::uint16_t>(rng.UniformInt(0, 2000)), 64);
  PacketMeta meta;
  meta.tenant_id = packet.TenantId();
  meta.pass = static_cast<std::uint8_t>(rng.UniformInt(0, 2));
  meta.flow_class = static_cast<std::uint8_t>(rng.UniformInt(0, 3));
  return {std::move(packet), meta};
}

class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

// 20 seeds x 500 lookups = 10k randomized rounds, each against a table
// under churn (installs, single removes, bulk tenant removes).
TEST_P(IndexEquivalenceTest, IndexedLookupMatchesReferenceUnderChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const auto spec = RandomSpec(rng);
  std::vector<MatchFieldSpec> key;
  for (const auto& domain : spec) key.push_back({domain.field, domain.kind});
  MatchActionTable table("t", key);
  const auto noop =
      table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const bool with_default = rng.Bernoulli(0.5);
  if (with_default) table.SetDefaultAction(noop);

  std::vector<EntryHandle> live;
  std::uint64_t expect_hits = 0, expect_misses = 0, expect_defaults = 0;

  for (int round = 0; round < 500; ++round) {
    // Churn: keep the table populated, with occasional removals so the
    // index is rebuilt mid-stream.
    const double op = rng.UniformDouble();
    if (op < 0.60 || live.empty()) {
      std::vector<FieldMatch> matches;
      for (const auto& domain : spec) matches.push_back(RandomMatch(rng, domain));
      const auto handle =
          table.AddEntry(std::move(matches), noop, {},
                         static_cast<int>(rng.UniformInt(-2, 3)),
                         static_cast<std::uint16_t>(rng.UniformInt(0, 3)));
      ASSERT_NE(handle, kInvalidEntryHandle);
      live.push_back(handle);
    } else if (op < 0.75) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_TRUE(table.RemoveEntry(live[at]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (op < 0.80) {
      const auto tenant = static_cast<std::uint16_t>(rng.UniformInt(0, 3));
      table.RemoveTenantEntries(tenant);
      live.clear();
      for (const auto& entry : table.entries()) live.push_back(entry.handle);
    }

    auto [packet, meta] = RandomPacket(rng);
    const TableEntry* indexed = table.Lookup(packet, meta);
    const TableEntry* reference = table.LookupReference(packet, meta);
    if (reference == nullptr) {
      ASSERT_EQ(indexed, nullptr) << "indexed path matched where the scan missed";
    } else {
      ASSERT_NE(indexed, nullptr) << "indexed path missed where the scan matched";
      ASSERT_EQ(indexed->handle, reference->handle)
          << "winner diverged (priority " << reference->priority << ")";
    }

    // Apply must agree with the reference verdict and advance the
    // hit/miss/default counters exactly as documented.
    if (reference != nullptr) {
      ++expect_hits;
    } else {
      ++expect_misses;
      if (with_default) ++expect_defaults;
    }
    auto applied = packet;
    auto applied_meta = meta;
    EXPECT_EQ(table.Apply(applied, applied_meta), reference != nullptr);
  }

  EXPECT_EQ(table.hit_count(), expect_hits);
  EXPECT_EQ(table.miss_count(), expect_misses);
  EXPECT_EQ(table.default_hit_count(), expect_defaults);
}

// Removal-heavy churn: most rounds remove (single entries or whole
// tenants), so removals hit winners with shadowed pure peers, buckets
// that empty out, the wildcard tier and the per-tenant lists, and the
// surviving indices are shifted many times over. After every mutation
// the indexed lookup must still agree with the scan, and each tenant's
// slice must hold exactly its entries, in install order.
TEST_P(IndexEquivalenceTest, IndexedLookupMatchesReferenceUnderRemovalHeavyChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const auto spec = RandomSpec(rng);
  std::vector<MatchFieldSpec> key;
  for (const auto& domain : spec) key.push_back({domain.field, domain.kind});
  MatchActionTable table("t", key);
  const auto noop =
      table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});

  for (int round = 0; round < 400; ++round) {
    const double op = rng.UniformDouble();
    if (op < 0.45 || table.entries().empty()) {
      // Bursts of installs with few distinct keys and priorities, so
      // buckets collect several pure entries and spill peers.
      const int burst = static_cast<int>(rng.UniformInt(1, 6));
      for (int b = 0; b < burst; ++b) {
        std::vector<FieldMatch> matches;
        for (const auto& domain : spec) matches.push_back(RandomMatch(rng, domain));
        ASSERT_NE(table.AddEntry(std::move(matches), noop, {},
                                 static_cast<int>(rng.UniformInt(-1, 1)),
                                 static_cast<std::uint16_t>(rng.UniformInt(0, 3))),
                  kInvalidEntryHandle);
      }
    } else if (op < 0.75) {
      const auto& entries = table.entries();
      const EntryHandle handle = entries[static_cast<std::size_t>(rng.UniformInt(
                                             0, static_cast<std::int64_t>(entries.size()) - 1))]
                                     .handle;
      EXPECT_TRUE(table.RemoveEntry(handle));
      EXPECT_FALSE(table.RemoveEntry(handle));
    } else {
      const auto owner = static_cast<std::uint16_t>(rng.UniformInt(0, 3));
      table.RemoveTenantEntries(owner);
      for (const auto& entry : table.entries()) ASSERT_NE(entry.owner_tenant, owner);
    }

    for (int probe = 0; probe < 8; ++probe) {
      auto [packet, meta] = RandomPacket(rng);
      const TableEntry* indexed = table.Lookup(packet, meta);
      const TableEntry* reference = table.LookupReference(packet, meta);
      if (reference == nullptr) {
        ASSERT_EQ(indexed, nullptr) << "round " << round;
      } else {
        ASSERT_NE(indexed, nullptr) << "round " << round;
        ASSERT_EQ(indexed->handle, reference->handle) << "round " << round;
      }
    }

    const std::size_t tf = table.tenant_field();
    if (tf == kNoKeyField) continue;
    for (std::uint16_t tenant = 0; tenant <= 3; ++tenant) {
      std::vector<EntryHandle> expected;
      for (const auto& entry : table.entries()) {
        if (entry.matches[tf].mask != 0 && entry.matches[tf].value == tenant) {
          expected.push_back(entry.handle);
        }
      }
      std::vector<EntryHandle> got;
      for (const auto& entry : table.SliceTenant(tenant).entries) got.push_back(entry.handle);
      ASSERT_EQ(got, expected) << "round " << round << " tenant " << tenant;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, IndexEquivalenceTest, ::testing::Range(0, 20));

// Pin the catch-all shape the data plane installs on exact-key NFs
// (NAT/LB): a low-priority entry with concrete (tenant, pass) prefix
// and FieldMatch::Any() on the NF's own exact key field must be
// reachable for *every* probe value, not just value 0 — it lives in
// the wildcard side tier, loses to any concrete rule, and still honors
// its own concrete prefix fields.
TEST(WildcardExactTest, CatchAllOnExactKeyFieldIsReachable) {
  MatchActionTable table("nat", {{FieldId::kTenantId, MatchKind::kExact},
                                 {FieldId::kPass, MatchKind::kExact},
                                 {FieldId::kSrcIp, MatchKind::kExact}});
  const auto noop =
      table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto translate =
      table.RegisterAction("translate", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto rule = table.AddEntry(
      {FieldMatch::Exact(7), FieldMatch::Exact(0), FieldMatch::Exact(0x0A010203)},
      translate, {}, 0, 7);
  const auto catch_all = table.AddEntry(
      {FieldMatch::Exact(7), FieldMatch::Exact(0), FieldMatch::Any()}, noop, {},
      -1000, 7);
  ASSERT_NE(rule, kInvalidEntryHandle);
  ASSERT_NE(catch_all, kInvalidEntryHandle);

  const auto probe = [&](std::uint16_t tenant, std::uint8_t pass, std::uint32_t src) {
    auto packet = net::MakeTcpPacket(tenant, Ipv4Address{src},
                                     Ipv4Address{0x0A000064}, 1024, 80, 64);
    PacketMeta meta;
    meta.tenant_id = tenant;
    meta.pass = pass;
    return table.Lookup(packet, meta);
  };

  // Concrete rule wins where it matches; any other source falls
  // through to the catch-all (this is the recirculation guarantee).
  const TableEntry* hit = probe(7, 0, 0x0A010203);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->handle, rule);
  const TableEntry* fallback = probe(7, 0, 0xC0A80001);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->handle, catch_all);
  // The catch-all's concrete prefix fields still constrain it: other
  // tenants and other passes miss outright.
  EXPECT_EQ(probe(8, 0, 0xC0A80001), nullptr);
  EXPECT_EQ(probe(7, 1, 0xC0A80001), nullptr);
  // Removal rebuilds the wildcard tier along with the index.
  EXPECT_TRUE(table.RemoveEntry(catch_all));
  EXPECT_EQ(probe(7, 0, 0xC0A80001), nullptr);
}

// The cached Apply path must produce decisions and counters identical
// to the uncached one, for the same random workload.
class CachedApplyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CachedApplyEquivalenceTest, CachedApplyMatchesUncached) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const auto spec = RandomSpec(rng);
  std::vector<MatchFieldSpec> key;
  for (const auto& domain : spec) key.push_back({domain.field, domain.kind});
  MatchActionTable cached_table("cached", key);
  MatchActionTable plain_table("plain", key);
  // The action stamps which entry fired into the metadata scratch so
  // divergence is observable.
  for (auto* table : {&cached_table, &plain_table}) {
    table->RegisterAction("stamp",
                          [](net::Packet&, PacketMeta& meta, const ActionArgs& args) {
                            meta.scratch = args.empty() ? 0 : args[0];
                          });
    table->SetDefaultAction(0, {0xDEFA});
  }

  FlowDecisionCache cache(64);  // small: exercises evictions too
  std::uint64_t next_stamp = 1;
  for (int round = 0; round < 400; ++round) {
    if (rng.Bernoulli(0.10) || cached_table.num_entries() == 0) {
      std::vector<FieldMatch> matches;
      for (const auto& domain : spec) matches.push_back(RandomMatch(rng, domain));
      const int priority = static_cast<int>(rng.UniformInt(-2, 3));
      const ActionArgs args = {next_stamp++};
      auto matches_copy = matches;
      ASSERT_NE(cached_table.AddEntry(std::move(matches), 0, args, priority),
                kInvalidEntryHandle);
      ASSERT_NE(plain_table.AddEntry(std::move(matches_copy), 0, args, priority),
                kInvalidEntryHandle);
    } else if (rng.Bernoulli(0.05)) {
      // Remove the same (synchronized) entry from both tables.
      const auto& entries = cached_table.entries();
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(entries.size()) - 1));
      const EntryHandle cached_handle = entries[at].handle;
      const EntryHandle plain_handle = plain_table.entries()[at].handle;
      EXPECT_TRUE(cached_table.RemoveEntry(cached_handle));
      EXPECT_TRUE(plain_table.RemoveEntry(plain_handle));
    }

    auto [packet, meta] = RandomPacket(rng);
    auto cached_packet = packet;
    auto cached_meta = meta;
    auto plain_packet = packet;
    auto plain_meta = meta;
    const bool cached_hit = cached_table.Apply(cached_packet, cached_meta, &cache);
    const bool plain_hit = plain_table.Apply(plain_packet, plain_meta);
    ASSERT_EQ(cached_hit, plain_hit) << "round " << round;
    ASSERT_EQ(cached_meta.scratch, plain_meta.scratch)
        << "cached path fired a different entry at round " << round;
  }
  EXPECT_EQ(cached_table.hit_count(), plain_table.hit_count());
  EXPECT_EQ(cached_table.miss_count(), plain_table.miss_count());
  EXPECT_EQ(cached_table.default_hit_count(), plain_table.default_hit_count());
  // The workload repeats values inside small domains, so the cache must
  // have been exercised in both directions.
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, CachedApplyEquivalenceTest,
                         ::testing::Range(0, 10));

TEST(FlowDecisionCacheTest, EpochBumpInvalidatesExactlyThatTable) {
  MatchActionTable table("t", {{FieldId::kDstPort, MatchKind::kExact}});
  table.RegisterAction("stamp", [](net::Packet&, PacketMeta& meta, const ActionArgs& args) {
    meta.scratch = args[0];
  });
  table.AddEntry({FieldMatch::Exact(80)}, 0, {1}, /*priority=*/0);

  FlowDecisionCache cache;
  auto packet = net::MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                   Ipv4Address::Of(2, 2, 2, 2), 9, 80, 64);
  PacketMeta meta;
  EXPECT_TRUE(table.Apply(packet, meta, &cache));
  EXPECT_EQ(meta.scratch, 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_TRUE(table.Apply(packet, meta, &cache));
  EXPECT_EQ(cache.hits(), 1u);

  // A higher-priority entry arrives (tenant admission): the epoch bump
  // must force re-resolution — a stale replay would fire entry 1.
  const std::uint64_t epoch_before = table.epoch();
  table.AddEntry({FieldMatch::Exact(80)}, 0, {2}, /*priority=*/5);
  EXPECT_GT(table.epoch(), epoch_before);
  EXPECT_TRUE(table.Apply(packet, meta, &cache));
  EXPECT_EQ(meta.scratch, 2u);
  EXPECT_EQ(cache.misses(), 2u);

  // Departure of the winning entry's owner re-resolves again.
  table.RemoveTenantEntries(0);  // both entries are owner 0
  EXPECT_FALSE(table.Apply(packet, meta, &cache));
  EXPECT_EQ(table.miss_count(), 1u);
  EXPECT_EQ(table.default_hit_count(), 0u);  // no default action set
}

TEST(FlowDecisionCacheTest, NoOpTenantRemovalKeepsEpoch) {
  MatchActionTable table("t", {{FieldId::kDstPort, MatchKind::kExact}});
  table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  table.AddEntry({FieldMatch::Exact(80)}, 0, {}, 0, /*owner_tenant=*/7);
  const std::uint64_t epoch = table.epoch();
  EXPECT_EQ(table.RemoveTenantEntries(99), 0u);  // tenant holds nothing here
  EXPECT_EQ(table.epoch(), epoch) << "no-op removal must not invalidate caches";
  EXPECT_EQ(table.RemoveTenantEntries(7), 1u);
  EXPECT_GT(table.epoch(), epoch);
}

TEST(FlowDecisionCacheTest, PipelineExportsCacheCounters) {
  SwitchConfig config;
  config.num_stages = 2;
  Pipeline pipeline(config);
  auto* table = pipeline.stage(0).AddTable("t", {{FieldId::kDstPort, MatchKind::kExact}});
  ASSERT_NE(table, nullptr);
  table->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  table->AddEntry({FieldMatch::Exact(80)}, 0);

  std::vector<net::Packet> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back(net::MakeTcpPacket(1, Ipv4Address::Of(10, 0, 0, 1),
                                       Ipv4Address::Of(10, 0, 0, 2),
                                       static_cast<std::uint16_t>(1024 + i % 8), 80, 64));
  }
  BatchOptions options;
  options.num_threads = 2;
  pipeline.ProcessBatch(batch, options);
  // The memo key is the *extracted table key tuple* — here just the
  // dst port, shared by all 8 flows — so each worker resolves it once
  // and the rest of the 256 packets replay the memoized decision.
  EXPECT_GT(pipeline.flow_cache_hits(), 0u);
  EXPECT_GT(pipeline.flow_cache_misses(), 0u);

  common::metrics::Registry registry;
  pipeline.ExportMetrics(registry);
  EXPECT_EQ(registry.GetCounter("pipeline.cache.hits").Value(),
            pipeline.flow_cache_hits());
  EXPECT_EQ(registry.GetCounter("pipeline.cache.misses").Value(),
            pipeline.flow_cache_misses());
  EXPECT_EQ(registry.GetCounter("pipeline.cache.evictions").Value(),
            pipeline.flow_cache_evictions());
  EXPECT_EQ(registry.GetCounter("pipeline.stage0.t.default_hits").Value(),
            table->default_hit_count());

  // Disabling the cache must not change results (spot check) and must
  // not advance the cache counters.
  const auto hits_before = pipeline.flow_cache_hits();
  const auto misses_before = pipeline.flow_cache_misses();
  BatchOptions no_cache = options;
  no_cache.flow_cache_slots = 0;
  auto uncached = pipeline.ProcessBatch(batch, no_cache);
  auto cached = pipeline.ProcessBatch(batch, options);
  ASSERT_EQ(uncached.size(), cached.size());
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    EXPECT_EQ(uncached[i].packet.Serialize(), cached[i].packet.Serialize());
    EXPECT_EQ(uncached[i].meta.dropped, cached[i].meta.dropped);
  }
  // Caches are per-call, so the cached batch re-resolves the shared
  // key tuple at least once (once per worker that owns any flows).
  EXPECT_GE(pipeline.flow_cache_misses(), misses_before + 1);
  EXPECT_GT(pipeline.flow_cache_hits(), hits_before);
}

TEST(DefaultHitsTest, DefaultActionServesAreCountedSeparately) {
  MatchActionTable with_default("d", {{FieldId::kDstPort, MatchKind::kExact}});
  with_default.RegisterAction("mark",
                              [](net::Packet&, PacketMeta& meta, const ActionArgs&) {
                                meta.scratch = 42;
                              });
  with_default.SetDefaultAction(0);
  MatchActionTable without_default("n", {{FieldId::kDstPort, MatchKind::kExact}});
  without_default.RegisterAction("mark",
                                 [](net::Packet&, PacketMeta&, const ActionArgs&) {});

  auto packet = net::MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                   Ipv4Address::Of(2, 2, 2, 2), 9, 443, 64);
  PacketMeta meta;
  // Miss + default action: counted as a miss AND a default hit, and
  // the default action still mutates the packet metadata.
  EXPECT_FALSE(with_default.Apply(packet, meta));
  EXPECT_EQ(meta.scratch, 42u);
  EXPECT_EQ(with_default.miss_count(), 1u);
  EXPECT_EQ(with_default.default_hit_count(), 1u);
  // Miss without a default action: a bare miss.
  PacketMeta bare;
  EXPECT_FALSE(without_default.Apply(packet, bare));
  EXPECT_EQ(without_default.miss_count(), 1u);
  EXPECT_EQ(without_default.default_hit_count(), 0u);
}

}  // namespace
}  // namespace sfp::switchsim
