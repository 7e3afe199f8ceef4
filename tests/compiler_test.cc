// Unit tests for the per-tenant pipeline compiler (docs/COMPILER.md):
// one test group per layer — the tenant lift, each lowering pass
// (dead-table elimination, constant folding, match fusion), the
// bit-vector classifier emission, and the plan cache's warm /
// invalidate / fallback contract. The randomized compiled-vs-
// interpreted bit-identity suite lives in compiler_equivalence_test.cc.
#include <algorithm>
#include <bit>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataplane/data_plane.h"
#include "net/packet.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/router.h"
#include "switchsim/compiler/exec.h"
#include "switchsim/compiler/ir.h"
#include "switchsim/compiler/passes.h"
#include "switchsim/compiler/plan.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::switchsim::compiler {
namespace {

using dataplane::DataPlane;
using dataplane::Sfc;

nf::NfConfig FwConfig() {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Range(23, 23),
      FieldMatch::Any(), /*priority=*/10));
  config.rules.push_back(nf::Firewall::Allow(
      FieldMatch::Exact(0x0a000001), FieldMatch::Any(), FieldMatch::Any(),
      FieldMatch::Range(23, 23), FieldMatch::Any(), /*priority=*/20));
  return config;
}

nf::NfConfig TcConfig(std::uint8_t cls) {
  nf::NfConfig config;
  config.type = nf::NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, cls));
  return config;
}

nf::NfConfig RtConfig() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 7));
  return config;
}

/// fw | tc | rt layout with two allocated tenants; tenant 3 folds over
/// two passes (rt before fw).
DataPlane MakeDataPlane() {
  DataPlane dp;
  EXPECT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  EXPECT_TRUE(dp.InstallPhysicalNf(1, nf::NfType::kClassifier));
  EXPECT_TRUE(dp.InstallPhysicalNf(2, nf::NfType::kRouter));
  Sfc t1;
  t1.tenant = 1;
  t1.chain = {FwConfig(), TcConfig(1), RtConfig()};
  Sfc t2;
  t2.tenant = 2;
  t2.chain = {TcConfig(2)};
  Sfc t3;  // router before firewall -> folds into pass 1
  t3.tenant = 3;
  t3.chain = {RtConfig(), FwConfig()};
  EXPECT_TRUE(dp.AllocateSfc(t1).ok);
  EXPECT_TRUE(dp.AllocateSfc(t2).ok);
  const auto a3 = dp.AllocateSfc(t3);
  EXPECT_TRUE(a3.ok);
  EXPECT_EQ(a3.passes, 2);
  return dp;
}

// ---------------------------------------------------------------- lift

TEST(LiftTest, SlicesOnlyTheTenantsEntriesInWinnerOrder) {
  auto dp = MakeDataPlane();
  const auto lifted = LiftTenant(dp.pipeline(), 1, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  const TenantIr& ir = lifted.ir;
  EXPECT_EQ(ir.tenant, 1);
  EXPECT_EQ(ir.num_stages, dp.pipeline().num_stages());
  ASSERT_EQ(ir.passes.size(), 1u);  // in-order chain, single pass
  ASSERT_EQ(ir.passes[0].slots.size(), 3u);  // fw, tc, rt tables

  const IrSlot& fw = ir.passes[0].slots[0];
  // 2 configured firewall rules + the per-tenant catch-all.
  ASSERT_EQ(fw.entries.size(), 3u);
  for (const IrEntry& entry : fw.entries) {
    // Every lifted entry names this tenant in the exact prefix.
    EXPECT_EQ(entry.matches[0].value, 1u);
  }
  // Winner order: priority 20 allow, then 10 deny, then -1000 catch-all.
  EXPECT_EQ(fw.entries[0].priority, 20);
  EXPECT_EQ(fw.entries[1].priority, 10);
  EXPECT_EQ(fw.entries[2].priority, -1000);
  EXPECT_TRUE(fw.entries[2].always_matches);
  // srcIp is read (the allow rule constrains it); dstIp never is.
  EXPECT_NE(fw.reads & FieldBit(FieldId::kSrcIp), 0u);
  EXPECT_EQ(fw.reads & FieldBit(FieldId::kDstIp), 0u);
}

TEST(LiftTest, FoldedChainLiftsOnePassPerRecirculation) {
  auto dp = MakeDataPlane();
  const auto lifted = LiftTenant(dp.pipeline(), 3, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  ASSERT_EQ(lifted.ir.passes.size(), 2u);
  // Pass 0 holds the router rules, pass 1 the firewall rules.
  EXPECT_TRUE(lifted.ir.passes[0].slots[0].entries.empty());   // fw @ pass 0
  EXPECT_FALSE(lifted.ir.passes[0].slots[2].entries.empty());  // rt @ pass 0
  EXPECT_FALSE(lifted.ir.passes[1].slots[0].entries.empty());  // fw @ pass 1
  // The tail (passes beyond the program) has no entries anywhere.
  for (const IrSlot& slot : lifted.ir.tail.slots) EXPECT_TRUE(slot.entries.empty());
}

TEST(LiftTest, TableWithoutTenantPassPrefixIsUnsupported) {
  Pipeline pipeline;
  auto* table = pipeline.stage(0).AddTable(
      "custom", {{FieldId::kSrcIp, MatchKind::kExact}});
  ASSERT_NE(table, nullptr);
  const auto lifted = LiftTenant(pipeline, 1, nullptr);
  EXPECT_FALSE(lifted.ok);
  EXPECT_NE(lifted.error.find("custom"), std::string::npos);
  EXPECT_NE(lifted.error.find("(tenant, pass)"), std::string::npos);
}

TEST(LiftTest, TenantSliceHoldsOnlyThatTenantsEntries) {
  auto dp = MakeDataPlane();
  for (int k = 0; k < dp.pipeline().num_stages(); ++k) {
    for (const auto& table : dp.pipeline().stage(k).tables()) {
      const std::size_t tf = table->tenant_field();
      ASSERT_NE(tf, kNoKeyField);
      std::size_t sliced = 0;
      for (const std::uint16_t tenant : {1, 2, 3, 9}) {
        const auto slice = table->SliceTenant(tenant);
        EXPECT_FALSE(slice.wildcards_prefix);
        std::vector<EntryHandle> expected;
        for (const TableEntry& entry : table->entries()) {
          if (entry.matches[tf].value == tenant) expected.push_back(entry.handle);
        }
        std::vector<EntryHandle> got;
        for (const TableEntry& entry : slice.entries) {
          EXPECT_EQ(entry.matches[tf].value, tenant) << table->name();
          got.push_back(entry.handle);
        }
        EXPECT_EQ(got, expected) << table->name() << " tenant " << tenant;
        sliced += got.size();
      }
      // Every entry of this layout names one of the tenants above.
      EXPECT_EQ(sliced, table->entries().size()) << table->name();
    }
  }
}

// ------------------------------------------- pass: dead-table elimination

IrSlot MatchSlot(int stage, FieldSet reads = kNoFields, FieldSet writes = kNoFields) {
  IrSlot slot;
  slot.stage = stage;
  slot.kind = SlotKind::kMatch;
  slot.reads = reads;
  slot.writes = writes;
  slot.entries.emplace_back();  // non-empty by default
  return slot;
}

TEST(DeadTableEliminationTest, MarksEmptySlotsDeadAndCountsRealPassesOnly) {
  TenantIr ir;
  ir.passes.emplace_back();
  ir.passes[0].slots.push_back(MatchSlot(0));
  ir.passes[0].slots.push_back(MatchSlot(1));
  ir.passes[0].slots[1].entries.clear();  // no rules for this (tenant, pass)
  ir.tail.slots.push_back(MatchSlot(0));
  ir.tail.slots[0].entries.clear();

  EXPECT_EQ(DeadTableElimination(ir), 1);  // the tail slot is not counted
  EXPECT_EQ(ir.passes[0].slots[0].kind, SlotKind::kMatch);
  EXPECT_EQ(ir.passes[0].slots[1].kind, SlotKind::kDead);
  EXPECT_EQ(ir.passes[0].slots[1].reads, kNoFields);
  EXPECT_EQ(ir.tail.slots[0].kind, SlotKind::kDead);
}

// ------------------------------------------------ pass: constant folding

TEST(ConstantFoldTest, FoldsUnconditionalWinnerAndDropsUnreachableEntries) {
  TenantIr ir;
  ir.passes.emplace_back();
  IrSlot slot = MatchSlot(0, FieldBit(FieldId::kSrcIp), kAllFields);
  slot.entries[0].always_matches = true;
  slot.entries[0].act.traits = ActionTraits::SetFlowClass();
  slot.entries.push_back(slot.entries[0]);  // unreachable runner-up
  slot.entries[1].always_matches = false;
  ir.passes[0].slots.push_back(std::move(slot));

  EXPECT_EQ(ConstantFoldAlwaysMatch(ir), 1);
  const IrSlot& folded = ir.passes[0].slots[0];
  EXPECT_EQ(folded.kind, SlotKind::kAlways);
  EXPECT_EQ(folded.entries.size(), 1u);
  EXPECT_EQ(folded.reads, kNoFields);
  // Only the surviving winner's writes remain.
  EXPECT_EQ(folded.writes, FieldBit(FieldId::kFlowClass));
}

TEST(ConstantFoldTest, LeavesGuardedWinnersAlone) {
  TenantIr ir;
  ir.passes.emplace_back();
  ir.passes[0].slots.push_back(MatchSlot(0, FieldBit(FieldId::kDstPort)));
  ir.passes[0].slots[0].entries[0].always_matches = false;
  EXPECT_EQ(ConstantFoldAlwaysMatch(ir), 0);
  EXPECT_EQ(ir.passes[0].slots[0].kind, SlotKind::kMatch);
  EXPECT_EQ(ir.passes[0].slots[0].entries.size(), 1u);
}

// --------------------------------------------------- pass: match fusion

TEST(MatchFusionTest, FusesSlotsWithDisjointReadAndWriteSets) {
  TenantIr ir;
  ir.passes.emplace_back();
  auto& slots = ir.passes[0].slots;
  // A writes flow_class; B reads dst_port (disjoint) -> fuses with A;
  // C reads flow_class (conflicts with A's write) -> new group.
  slots.push_back(MatchSlot(0, FieldBit(FieldId::kSrcIp), FieldBit(FieldId::kFlowClass)));
  slots.push_back(MatchSlot(1, FieldBit(FieldId::kDstPort), kNoFields));
  slots.push_back(MatchSlot(2, FieldBit(FieldId::kFlowClass), kNoFields));

  EXPECT_EQ(MatchFusion(ir), 1);
  EXPECT_EQ(slots[0].fusion_group, slots[1].fusion_group);
  EXPECT_NE(slots[1].fusion_group, slots[2].fusion_group);
}

TEST(MatchFusionTest, CapsGroupsAtMaxFusedSlots) {
  TenantIr ir;
  ir.passes.emplace_back();
  for (int i = 0; i < kMaxFusedSlots + 4; ++i) {
    ir.passes[0].slots.push_back(MatchSlot(i));  // no conflicts at all
  }
  EXPECT_EQ(MatchFusion(ir), (kMaxFusedSlots - 1) + 3);
  EXPECT_EQ(ir.passes[0].slots[kMaxFusedSlots - 1].fusion_group,
            ir.passes[0].slots[0].fusion_group);
  EXPECT_NE(ir.passes[0].slots[kMaxFusedSlots].fusion_group,
            ir.passes[0].slots[0].fusion_group);
}

TEST(MatchFusionTest, DeadSlotsFuseTransparentlyWithoutCounting) {
  TenantIr ir;
  ir.passes.emplace_back();
  auto& slots = ir.passes[0].slots;
  slots.push_back(MatchSlot(0));
  slots[0].entries.clear();  // dead after DTE
  slots.push_back(MatchSlot(1));
  slots.push_back(MatchSlot(2));
  ASSERT_EQ(DeadTableElimination(ir), 1);
  // dead + live + live: only the third slot joins a group that already
  // has a live member.
  EXPECT_EQ(MatchFusion(ir), 1);
  EXPECT_EQ(slots[0].fusion_group, slots[1].fusion_group);
  EXPECT_EQ(slots[1].fusion_group, slots[2].fusion_group);
}

// ------------------------------------ emission (bit-vector classifier)

TEST(EmitPlanTest, LaysOutRulesStructOfArraysWithPrecomputedMasks) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  std::string error;
  const auto plan = CompileTenant(dp.pipeline(), 1, nullptr, &error);
  ASSERT_NE(plan, nullptr) << error;
  EXPECT_EQ(plan->tenant, 1);
  ASSERT_EQ(plan->passes.size(), 1u);
  ASSERT_FALSE(plan->tables.empty());

  const CompiledPass& pass = plan->passes[0];
  ASSERT_EQ(pass.slots.size(), 3u);
  for (const CompiledSlot& slot : pass.slots) {
    // Each entry has an action; a matched slot's blocks cover every
    // entry before its first unconditional one (the miss winner), 64
    // to a block, and every span lies inside its pool.
    if (slot.kind != SlotKind::kMatch) continue;
    const std::size_t reach =
        slot.miss_winner < 0 ? slot.actions.size() : static_cast<std::size_t>(slot.miss_winner);
    EXPECT_EQ(slot.block_count, (reach + 63) / 64);
    ASSERT_LE(slot.block_begin + slot.block_count, plan->blocks.size());
    std::uint32_t matcher_begin = slot.matcher_begin;
    for (std::uint32_t b = 0; b < slot.block_count; ++b) {
      const CompiledBlock& block = plan->blocks[slot.block_begin + b];
      EXPECT_NE(block.all, 0u);
      EXPECT_LE(static_cast<std::size_t>(std::bit_width(block.all)),
                reach - kBlockEntries * b);
      ASSERT_LE(matcher_begin + block.matcher_count, plan->matchers.size());
      for (std::uint32_t m = 0; m < block.matcher_count; ++m) {
        const CompiledMatcher& matcher = plan->matchers[matcher_begin + m];
        EXPECT_GE(matcher.interval_count, 1u);
        EXPECT_LE(matcher.interval_begin + matcher.interval_count, plan->starts.size());
        EXPECT_EQ(matcher.starts, plan->starts.data() + matcher.interval_begin);
        EXPECT_EQ(matcher.starts[0], 0u);
        EXPECT_LE(matcher.ternary_begin + matcher.ternary_count, plan->ternary.size());
      }
      matcher_begin += block.matcher_count;
    }
  }
  EXPECT_EQ(plan->starts.size(), plan->masks.size());
  // The firewall's allow rule (winner order: first, priority 20) holds
  // a ternary src-ip condition with a full mask: emission turns it into
  // the one-value interval [10.0.0.1, 10.0.0.1], whose precomputed mask
  // carries the allow bit (bit 0); the deny rule (bit 1) does not
  // constrain src-ip.
  const CompiledSlot& fw = pass.slots[0];
  ASSERT_EQ(fw.kind, SlotKind::kMatch);
  ASSERT_EQ(fw.block_count, 1u);
  const CompiledBlock& fw_block = plan->blocks[fw.block_begin];
  bool found_src_matcher = false;
  for (std::uint32_t m = 0; m < fw_block.matcher_count; ++m) {
    const CompiledMatcher& matcher = plan->matchers[fw.matcher_begin + m];
    if (matcher.field != static_cast<std::uint8_t>(FieldId::kSrcIp)) continue;
    found_src_matcher = true;
    EXPECT_EQ(matcher.ternary_count, 0u);
    EXPECT_EQ(MatchField(matcher, 0x0a000001) & 0b11u, 0b11u);
    EXPECT_EQ(MatchField(matcher, 0x0a000000) & 0b11u, 0b10u);
    EXPECT_EQ(MatchField(matcher, 0x0a000002) & 0b11u, 0b10u);
  }
  EXPECT_TRUE(found_src_matcher);
  // Groups tile the slots exactly once, in order.
  std::uint32_t covered = 0;
  for (const CompiledGroup& group : pass.groups) {
    EXPECT_EQ(group.slot_begin, covered);
    covered += group.slot_count;
  }
  EXPECT_EQ(covered, pass.slots.size());
}

TEST(EmitPlanTest, FoldedCatchAllOnlyTableEmitsNoOps) {
  auto dp = MakeDataPlane();
  // Tenant 2's single-NF chain: tc holds one always-match rule + the
  // catch-all; fw and rt hold nothing.
  const auto plan = CompileTenant(dp.pipeline(), 2, nullptr);
  ASSERT_NE(plan, nullptr);
  const CompiledPass& pass = plan->passes[0];
  EXPECT_EQ(pass.slots[0].kind, SlotKind::kDead);    // fw
  EXPECT_EQ(pass.slots[1].kind, SlotKind::kAlways);  // tc folded
  EXPECT_EQ(pass.slots[2].kind, SlotKind::kDead);    // rt
  // A folded slot matches nothing: a single entry and no matcher.
  EXPECT_EQ(pass.slots[1].actions.size(), 1u);
  EXPECT_EQ(pass.slots[1].block_count, 0u);
  EXPECT_GE(plan->stats.dead_tables, 2);
  EXPECT_GE(plan->stats.folded_tables, 1);
}

// ------------------------------ classifier differential (table level)

/// Tables per run of the randomized classifier differential; the
/// nightly job raises it through SFP_CLASSIFIER_DIFF_TABLES.
int DiffTables() {
  if (const char* env = std::getenv("SFP_CLASSIFIER_DIFF_TABLES")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 60;
}

/// Payload key fields the differential draws from, one per match kind
/// and width.
const MatchFieldSpec kClassifierFields[] = {
    {FieldId::kSrcIp, MatchKind::kTernary},  {FieldId::kDstIp, MatchKind::kLpm},
    {FieldId::kSrcPort, MatchKind::kExact},  {FieldId::kDstPort, MatchKind::kRange},
    {FieldId::kIpProto, MatchKind::kTernary}, {FieldId::kDscp, MatchKind::kRange},
    {FieldId::kSrcIp, MatchKind::kRange},
};

std::uint64_t RandomIn(Rng& rng, std::uint64_t max) {
  return static_cast<std::uint64_t>(rng.Next()) & max;
}

/// A random pattern: wildcards, exact values, byte-granular ternary
/// masks (non-contiguous included), LPM /0-/32, ranges that reach 0
/// and the field maximum, and now and then one that can never hold.
FieldMatch RandomClassifierMatch(Rng& rng, const MatchFieldSpec& spec) {
  const std::uint64_t max = FieldMaxValue(spec.field);
  if (rng.Bernoulli(0.2)) return FieldMatch::Any();
  const bool never = rng.Bernoulli(0.03);
  switch (spec.kind) {
    case MatchKind::kExact:
      return FieldMatch::Exact(never ? max + 1 + RandomIn(rng, 0xFF) : RandomIn(rng, max));
    case MatchKind::kTernary: {
      std::uint64_t mask = 0;
      for (int b = 0; b < 4; ++b) {
        if (rng.Bernoulli(0.5)) mask |= 0xFFULL << (8 * b);
      }
      if (never) return FieldMatch::Ternary((max + 1) | RandomIn(rng, max), mask | (max + 1));
      // Value bits outside the mask (and the width) are ignored.
      return FieldMatch::Ternary(rng.Next(), rng.Bernoulli(0.2) ? mask : mask & max);
    }
    case MatchKind::kLpm:
      return FieldMatch::Lpm(RandomIn(rng, max), static_cast<int>(rng.UniformInt(0, 32)));
    case MatchKind::kRange: {
      std::uint64_t lo = RandomIn(rng, max);
      std::uint64_t hi = lo + RandomIn(rng, max >> static_cast<int>(rng.UniformInt(0, 8)));
      if (rng.Bernoulli(0.15)) lo = 0;
      if (rng.Bernoulli(0.15)) hi = rng.Bernoulli(0.5) ? max : max + 7;
      if (never) return FieldMatch::Range(max + 1, max + 1 + RandomIn(rng, 0xFF));
      return FieldMatch::Range(lo, hi);
    }
  }
  return FieldMatch::Any();
}

/// Values at and around each pattern's edges: lo, hi and hi + 1 of
/// every interval it covers (clipped to the field width).
void AddEdgeValues(const FieldMatch& m, const MatchFieldSpec& spec,
                   std::vector<std::uint64_t>& out) {
  const std::uint64_t max = FieldMaxValue(spec.field);
  std::uint64_t lo = 0;
  std::uint64_t hi = max;
  switch (spec.kind) {
    case MatchKind::kExact:
      lo = hi = m.value;
      break;
    case MatchKind::kTernary:
      lo = m.value & m.mask & max;
      hi = lo | (max & ~m.mask);
      break;
    case MatchKind::kLpm: {
      const std::uint64_t mask =
          m.prefix_len >= 32 ? 0xFFFFFFFFULL
                             : (0xFFFFFFFFULL << (32 - m.prefix_len)) & 0xFFFFFFFFULL;
      lo = m.value & mask & max;
      hi = lo | (max & ~mask);
      break;
    }
    case MatchKind::kRange:
      lo = m.lo;
      hi = m.hi;
      break;
  }
  for (const std::uint64_t v : {lo, hi, hi + 1, lo - 1}) {
    if (v <= max) out.push_back(v);
  }
}

/// Packet + metadata carrying `values` (indexed by FieldId) for tenant
/// 1, pass 0.
std::pair<net::Packet, PacketMeta> ProbePacket(const std::uint64_t* values) {
  auto packet = net::MakeTcpPacket(
      1, net::Ipv4Address{static_cast<std::uint32_t>(values[static_cast<int>(FieldId::kSrcIp)])},
      net::Ipv4Address{static_cast<std::uint32_t>(values[static_cast<int>(FieldId::kDstIp)])},
      static_cast<std::uint16_t>(values[static_cast<int>(FieldId::kSrcPort)]),
      static_cast<std::uint16_t>(values[static_cast<int>(FieldId::kDstPort)]), 64);
  packet.ipv4->protocol = static_cast<std::uint8_t>(values[static_cast<int>(FieldId::kIpProto)]);
  packet.ipv4->dscp = static_cast<std::uint8_t>(values[static_cast<int>(FieldId::kDscp)]);
  PacketMeta meta;
  meta.tenant_id = 1;
  return {std::move(packet), meta};
}

/// The compiled winner's install handle for (tenant 1, pass 0) of the
/// only table, or kInvalidEntryHandle on a miss.
EntryHandle CompiledWinner(const TenantIr& ir, const CompiledPlan& plan,
                           const net::Packet& packet, const PacketMeta& meta) {
  std::uint64_t values[kNumFields] = {};
  for (unsigned f = 0; f < kNumFields; ++f) {
    values[f] = GetField(packet, meta, static_cast<FieldId>(f));
  }
  const CompiledSlot& slot = plan.passes[0].slots[0];
  std::int32_t w = -1;
  if (slot.kind == SlotKind::kAlways) w = 0;
  if (slot.kind == SlotKind::kMatch) w = MatchSlot(slot, values);
  if (w < 0) return kInvalidEntryHandle;
  return ir.passes[0].slots[0].entries[static_cast<std::size_t>(w)].handle;
}

TEST(CompiledClassifierTest, WinnerMatchesReferenceLookupOnRandomTables) {
  Rng rng(20260613);
  const int tables = DiffTables();
  std::size_t probes = 0;
  std::size_t hits = 0;
  int multi_block = 0;  // slots whose blocks cross the 64-entry edge
  int shadowing = 0;    // slots cut short by an unconditional entry
  for (int t = 0; t < tables; ++t) {
    Pipeline pipeline;
    std::vector<MatchFieldSpec> key = {{FieldId::kTenantId, MatchKind::kExact},
                                       {FieldId::kPass, MatchKind::kExact}};
    const auto arity = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<std::size_t> picks(std::size(kClassifierFields));
    for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    for (std::size_t i = 0; i < arity; ++i) {
      std::swap(picks[i], picks[static_cast<std::size_t>(rng.UniformInt(
                              static_cast<std::int64_t>(i),
                              static_cast<std::int64_t>(picks.size()) - 1))]);
      key.push_back(kClassifierFields[picks[i]]);
    }
    MatchActionTable* table = pipeline.stage(0).AddTable("t", key);
    ASSERT_NE(table, nullptr);
    const ActionId noop =
        table->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});

    // 0-200 entries in the (1, 0) slot, so both sides of the 64-entry
    // block edges occur, beside entries the slice must leave out.
    // An entry that wildcards every field shadows all entries after it
    // in winner order, which would keep most slots short of the block
    // edge; half the tables redraw such entries.
    std::vector<std::vector<std::uint64_t>> edges(kNumFields);
    const int entries = static_cast<int>(rng.UniformInt(0, 200));
    const bool catch_alls = rng.Bernoulli(0.5);
    for (int e = 0; e < entries + 20; ++e) {
      const bool ours = e < entries;
      std::vector<FieldMatch> matches;
      bool wildcard = true;
      do {
        matches = {
            FieldMatch::Exact(ours ? 1 : static_cast<std::uint64_t>(rng.UniformInt(2, 3))),
            FieldMatch::Exact(ours ? 0 : static_cast<std::uint64_t>(rng.UniformInt(0, 1)))};
        wildcard = true;
        for (std::size_t f = 2; f < key.size(); ++f) {
          matches.push_back(RandomClassifierMatch(rng, key[f]));
          wildcard = wildcard && IsWildcardMatch(matches.back(), key[f].kind, key[f].field);
        }
      } while (wildcard && !catch_alls);
      for (std::size_t f = 2; f < key.size(); ++f) {
        AddEdgeValues(matches[f], key[f], edges[static_cast<int>(key[f].field)]);
      }
      ASSERT_NE(table->AddEntry(std::move(matches), noop, {},
                                static_cast<int>(rng.UniformInt(-2, 3)), /*owner_tenant=*/1),
                kInvalidEntryHandle);
    }

    LiftResult lifted = LiftTenant(pipeline, 1, nullptr);
    ASSERT_TRUE(lifted.ok) << lifted.error;
    const PassStats stats = RunLoweringPasses(lifted.ir);
    const auto plan = EmitPlan(lifted.ir, stats);
    const CompiledSlot& slot = plan->passes[0].slots[0];
    multi_block += slot.block_count > 1 ? 1 : 0;
    shadowing += slot.kind == SlotKind::kMatch && slot.miss_winner >= 0 ? 1 : 0;

    const int rounds = 400;
    for (int r = 0; r < rounds; ++r) {
      std::uint64_t values[kNumFields] = {};
      for (unsigned f = 0; f < kNumFields; ++f) {
        const std::vector<std::uint64_t>& near = edges[f];
        values[f] = !near.empty() && rng.Bernoulli(0.8)
                        ? near[static_cast<std::size_t>(rng.UniformInt(
                              0, static_cast<std::int64_t>(near.size()) - 1))]
                        : RandomIn(rng, FieldMaxValue(static_cast<FieldId>(f)));
      }
      const auto [packet, meta] = ProbePacket(values);
      const TableEntry* reference = table->LookupReference(packet, meta);
      const EntryHandle compiled = CompiledWinner(lifted.ir, *plan, packet, meta);
      ++probes;
      if (reference == nullptr) {
        ASSERT_EQ(compiled, kInvalidEntryHandle) << "table " << t << " round " << r;
      } else {
        ++hits;
        ASSERT_EQ(compiled, reference->handle) << "table " << t << " round " << r;
      }
    }
  }
  // The probes exercise both outcomes, and the tables both block
  // edges and shadowed entries.
  EXPECT_GT(hits, probes / 10);
  EXPECT_LT(hits, probes);
  EXPECT_GT(multi_block, tables / 10);
  EXPECT_GT(shadowing, tables / 10);
}

TEST(CompiledClassifierTest, ConditionThatCanNeverHoldLeavesItsEntryOut) {
  Pipeline pipeline;
  MatchActionTable* table =
      pipeline.stage(0).AddTable("t", {{FieldId::kTenantId, MatchKind::kExact},
                                       {FieldId::kPass, MatchKind::kExact},
                                       {FieldId::kDstPort, MatchKind::kTernary},
                                       {FieldId::kSrcPort, MatchKind::kRange}});
  ASSERT_NE(table, nullptr);
  const ActionId noop =
      table->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto add = [&](FieldMatch dport, FieldMatch sport, int priority) {
    return table->AddEntry({FieldMatch::Exact(1), FieldMatch::Exact(0), dport, sport}, noop, {},
                           priority, 1);
  };
  // A value bit above the 16-bit port width, and an empty range (lo >
  // hi, which FieldMatch::Range refuses to build): in winner order they
  // come first, but no packet can match them.
  FieldMatch empty = FieldMatch::Range(9, 9);
  empty.lo = 10;
  add(FieldMatch::Ternary(0x10050, 0x1FFFF), FieldMatch::Any(), 30);
  add(FieldMatch::Any(), empty, 20);
  const EntryHandle fallback = add(FieldMatch::Ternary(0x50, 0xFFFF), FieldMatch::Any(), 10);

  LiftResult lifted = LiftTenant(pipeline, 1, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  const auto plan = EmitPlan(lifted.ir, RunLoweringPasses(lifted.ir));
  const CompiledSlot& slot = plan->passes[0].slots[0];
  ASSERT_EQ(slot.kind, SlotKind::kMatch);
  ASSERT_EQ(slot.block_count, 1u);
  EXPECT_EQ(plan->blocks[slot.block_begin].all, 0b100u);

  for (const std::uint64_t dport : {0x50ULL, 0x51ULL, 0ULL, 0xFFFFULL}) {
    std::uint64_t values[kNumFields] = {};
    values[static_cast<int>(FieldId::kDstPort)] = dport;
    values[static_cast<int>(FieldId::kSrcPort)] = 8;
    const auto [packet, meta] = ProbePacket(values);
    const TableEntry* reference = table->LookupReference(packet, meta);
    const EntryHandle compiled = CompiledWinner(lifted.ir, *plan, packet, meta);
    if (dport == 0x50) {
      ASSERT_NE(reference, nullptr);
      EXPECT_EQ(reference->handle, fallback);
      EXPECT_EQ(compiled, fallback);
    } else {
      EXPECT_EQ(reference, nullptr);
      EXPECT_EQ(compiled, kInvalidEntryHandle);
    }
  }
}

TEST(CompiledClassifierTest, UnconditionalEntryShadowsTheEntriesAfterIt) {
  Pipeline pipeline;
  MatchActionTable* table =
      pipeline.stage(0).AddTable("t", {{FieldId::kTenantId, MatchKind::kExact},
                                       {FieldId::kPass, MatchKind::kExact},
                                       {FieldId::kDstPort, MatchKind::kExact}});
  ASSERT_NE(table, nullptr);
  const ActionId noop =
      table->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto add = [&](FieldMatch dport, int priority) {
    return table->AddEntry({FieldMatch::Exact(1), FieldMatch::Exact(0), dport}, noop, {},
                           priority, 1);
  };
  // Winner order: dport 80, then the catch-all, then dport 81, which
  // the catch-all shadows.
  const EntryHandle http = add(FieldMatch::Exact(80), 30);
  const EntryHandle any = add(FieldMatch::Any(), 20);
  add(FieldMatch::Exact(81), 10);

  LiftResult lifted = LiftTenant(pipeline, 1, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  const auto plan = EmitPlan(lifted.ir, RunLoweringPasses(lifted.ir));
  const CompiledSlot& slot = plan->passes[0].slots[0];
  ASSERT_EQ(slot.kind, SlotKind::kMatch);
  EXPECT_EQ(slot.miss_winner, 1);
  ASSERT_EQ(slot.block_count, 1u);
  EXPECT_EQ(plan->blocks[slot.block_begin].all, 0b1u);

  for (const std::uint64_t dport : {80ULL, 81ULL, 0ULL}) {
    std::uint64_t values[kNumFields] = {};
    values[static_cast<int>(FieldId::kDstPort)] = dport;
    const auto [packet, meta] = ProbePacket(values);
    const TableEntry* reference = table->LookupReference(packet, meta);
    ASSERT_NE(reference, nullptr);
    EXPECT_EQ(reference->handle, dport == 80 ? http : any);
    EXPECT_EQ(CompiledWinner(lifted.ir, *plan, packet, meta), reference->handle);
  }
}

// ----------------------------------------------------------- plan cache

TEST(PlanCacheTest, WarmThenAcquireServesTheCompiledPlan) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->Warm(1));
  const auto plan = cache->Acquire(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Validate());
  EXPECT_GE(cache->PlansCompiled(), 1u);
  EXPECT_EQ(cache->FallbackTenants(), 0u);
}

TEST(PlanCacheTest, MutationHooksInvalidateAndRecompile) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));
  const auto before = cache->Acquire(1);
  const std::uint64_t generation = cache->generation();

  // Departure runs the DataPlane invalidation hook.
  EXPECT_GT(dp.DeallocateSfc(1), 0u);
  EXPECT_GE(cache->Invalidations(), 1u);
  EXPECT_NE(cache->generation(), generation);
  // The old plan is stale; a fresh Acquire compiles the empty program.
  EXPECT_FALSE(before->Validate());
  const auto after = cache->Acquire(1);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->Validate());
  EXPECT_GE(cache->Recompiles(), 1u);
  for (const CompiledSlot& slot : after->passes.empty()
                                      ? after->tail.slots
                                      : after->passes[0].slots) {
    EXPECT_EQ(slot.kind, SlotKind::kDead);
  }
}

TEST(PlanCacheTest, ExecContextDetectsStaleEpochsPerPacket) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));

  ExecContext exec(*cache);
  // Hold a reference so `before` stays inspectable after the context
  // drops its memoized copy.
  const auto before = cache->Acquire(1);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(exec.PlanFor(1), before.get());

  // Mutate a lifted table directly — bypassing every DataPlane hook —
  // so only the per-packet epoch backstop can notice.
  auto* table = dp.pipeline().stage(0).tables()[0].get();
  std::vector<FieldMatch> matches(table->key().size(), FieldMatch::Any());
  matches[0] = FieldMatch::Exact(1);
  matches[1] = FieldMatch::Exact(0);
  ASSERT_NE(table->AddEntry(std::move(matches), 0, {}, 5, 1), kInvalidEntryHandle);

  // Stale detected on the very next resolve; the context invalidates
  // and recompiles in place against the mutated table.
  const CompiledPlan* recompiled = exec.PlanFor(1);
  ASSERT_NE(recompiled, nullptr);
  EXPECT_NE(recompiled, before.get());
  EXPECT_FALSE(before->Validate());
  EXPECT_TRUE(recompiled->Validate());
  EXPECT_GE(cache->Invalidations(), 1u);
  EXPECT_GE(cache->Recompiles(), 1u);
}

TEST(PlanCacheTest, UnsupportedTenantIsCachedAsInterpreterFallback) {
  Pipeline pipeline;
  ASSERT_NE(pipeline.stage(0).AddTable("custom", {{FieldId::kSrcIp, MatchKind::kExact}}),
            nullptr);
  PlanCache cache(pipeline, ActionMetadata{});
  std::string error;
  EXPECT_FALSE(cache.Warm(7, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.Acquire(7), nullptr);
  EXPECT_EQ(cache.FallbackTenants(), 1u);
  EXPECT_EQ(cache.PlansCompiled(), 0u);
}


/// Id of the action registered as `name` on `table`.
ActionId ActionNamed(const MatchActionTable& table, const std::string& name) {
  const auto& names = table.action_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  return static_cast<ActionId>(it - names.begin());
}

TEST(PlanCacheTest, OtherTenantsWritesKeepThePlan) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));
  const auto before = cache->Acquire(1);
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->Validate());
  const std::uint64_t recompiles = cache->Recompiles();

  // Admit a tenant onto every table tenant 1 uses, then remove another
  // one: both write tables tenant 1's plan was lifted from.
  Sfc t4;
  t4.tenant = 4;
  t4.chain = {FwConfig(), TcConfig(4), RtConfig()};
  ASSERT_TRUE(dp.AllocateSfc(t4).ok);
  EXPECT_TRUE(before->Validate());
  EXPECT_EQ(cache->Acquire(1), before);
  ASSERT_GT(dp.DeallocateSfc(3), 0u);
  EXPECT_TRUE(before->Validate());
  EXPECT_EQ(cache->Acquire(1), before);

  // The serve path resolves the same plan object without a recompile.
  ExecContext exec(*cache);
  EXPECT_EQ(exec.PlanFor(1), before.get());
  EXPECT_EQ(cache->Recompiles(), recompiles);
}

TEST(PlanCacheTest, DefaultActionChangeInvalidatesEveryTenantsPlan) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  for (int k = 0; k < dp.pipeline().num_stages(); ++k) {
    for (const auto& table : dp.pipeline().stage(k).tables()) {
      cache->InvalidateAll();
      std::vector<std::shared_ptr<const CompiledPlan>> plans;
      for (const std::uint16_t tenant : {1, 2, 3}) {
        ASSERT_TRUE(cache->Warm(tenant));
        plans.push_back(cache->Acquire(tenant));
        ASSERT_TRUE(plans.back()->Validate());
      }
      table->SetDefaultAction(ActionNamed(*table, "noop"));
      for (const auto& plan : plans) {
        EXPECT_FALSE(plan->Validate()) << table->name() << " tenant " << plan->tenant;
      }
    }
  }
}

TEST(PlanCacheTest, PrefixWildcardEntryFallsBackToTheInterpreter) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));

  // A deny that wildcards the whole key, (tenant, pass) prefix
  // included: the interpreter applies it to every tenant's packets.
  auto* fw = dp.pipeline().stage(0).FindTable("fw_s0");
  ASSERT_NE(fw, nullptr);
  ASSERT_NE(fw->AddEntry(std::vector<FieldMatch>(fw->key().size(), FieldMatch::Any()),
                         ActionNamed(*fw, "deny"), {}, /*priority=*/100, /*owner_tenant=*/0),
            kInvalidEntryHandle);

  const net::Packet packet = net::MakeTcpPacket(1, net::Ipv4Address{0x0a000002},
                                                net::Ipv4Address{0x0a000003}, 1000, 80, 64);
  ASSERT_TRUE(dp.pipeline().Process(packet).meta.dropped);
  const auto compiled = dp.pipeline().ProcessBatch(std::span(&packet, 1));
  EXPECT_TRUE(compiled[0].meta.dropped) << "compiled plan ignored the wildcard deny";

  cache->Invalidate(1);
  std::string error;
  EXPECT_FALSE(cache->Warm(1, &error));
  EXPECT_NE(error.find("fw_s0"), std::string::npos) << error;
  EXPECT_EQ(cache->Acquire(1), nullptr);
}

TEST(PlanCacheTest, FallbackRecompilesOnceItsCauseIsRemoved) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));

  // A prefix-wildcarding deny, added and later removed by direct table
  // writes: no DataPlane hook invalidates anything.
  auto* fw = dp.pipeline().stage(0).FindTable("fw_s0");
  ASSERT_NE(fw, nullptr);
  const EntryHandle deny =
      fw->AddEntry(std::vector<FieldMatch>(fw->key().size(), FieldMatch::Any()),
                   ActionNamed(*fw, "deny"), {}, /*priority=*/100, /*owner_tenant=*/0);
  ASSERT_NE(deny, kInvalidEntryHandle);
  const net::Packet packet = net::MakeTcpPacket(1, net::Ipv4Address{0x0a000002},
                                                net::Ipv4Address{0x0a000003}, 1000, 80, 64);
  EXPECT_TRUE(dp.pipeline().ProcessBatch(std::span(&packet, 1))[0].meta.dropped);
  EXPECT_EQ(cache->Acquire(1), nullptr);
  EXPECT_EQ(cache->FallbackTenants(), 1u);

  ASSERT_TRUE(fw->RemoveEntry(deny));
  EXPECT_FALSE(dp.pipeline().ProcessBatch(std::span(&packet, 1))[0].meta.dropped);
  const auto plan = cache->Acquire(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Validate());
  EXPECT_EQ(cache->FallbackTenants(), 0u);

  // Unchanged stamps keep a fallback cached: no recompile per Acquire.
  Pipeline pipeline;
  ASSERT_NE(pipeline.stage(0).AddTable("custom", {{FieldId::kSrcIp, MatchKind::kExact}}),
            nullptr);
  PlanCache unsupported(pipeline, ActionMetadata{});
  EXPECT_EQ(unsupported.Acquire(7), nullptr);
  const std::uint64_t generation = unsupported.generation();
  EXPECT_EQ(unsupported.Acquire(7), nullptr);
  EXPECT_EQ(unsupported.generation(), generation);
}

}  // namespace
}  // namespace sfp::switchsim::compiler
