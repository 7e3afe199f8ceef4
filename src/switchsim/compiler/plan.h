// The executable artifact of the pipeline compiler.
//
// EmitPlan lowers a pass-annotated TenantIr into flat, cache-friendly
// data the batch workers execute directly (exec.cc). Each matched slot
// is a bit-vector classifier (Lakshman & Stiliadis): its entries, in
// winner order, are cut into blocks of at most 64, and each block holds
// one matcher per key field some entry constrains. A matcher maps the
// field's value to the mask of entries whose condition on that field
// holds, by one search over precomputed elementary intervals (exact,
// range, LPM and low-contiguous ternary conditions) plus a short list
// of other ternary terms. AND-ing a block's matcher masks leaves its
// matching entries; the lowest set bit of the first nonzero block is
// the lookup winner. The blocks stop before the slot's first entry
// that constrains no field, which wins when no block matches. Blocks,
// matchers, interval starts, masks and ternary terms are pooled
// plan-wide, so a slot is a span of indices.
//
// A plan records its tenant's mutation stamp and the pipeline's
// all-tenant stamp at lift time; Validate() rechecks them, which is the
// per-packet backstop of the invalidation contract (docs/COMPILER.md).
// Writes to other tenants' entries move neither stamp, so they leave
// this plan valid.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "switchsim/compiler/ir.h"
#include "switchsim/compiler/passes.h"

namespace sfp::switchsim::compiler {

/// A ternary condition that is not an interval: the entry's bit is set
/// iff (value & mask) == value_bits (value_bits pre-masked, mask
/// clipped to the field width).
struct TernaryTerm {
  std::uint64_t value_bits = 0;
  std::uint64_t mask = 0;
  std::uint64_t bit = 0;
};

/// Padding starts after each matcher's intervals (see CompiledMatcher).
inline constexpr std::uint32_t kMatcherPadding = 3;

/// One key field of a classifier block. The field's value v selects
/// elementary interval i, the last of the sorted starts
/// [interval_begin, interval_begin + interval_count) with start <= v
/// (the first start is 0); masks[i] holds the bit of every entry whose
/// interval covers it, plus every entry that does not constrain the
/// field. Each ternary term whose condition holds ORs its bit in. The
/// starts are followed by kMatcherPadding starts (all ones,
/// repeating the last mask), so the search's last round stays inside
/// the pool; a value can reach them only when it is all ones itself,
/// and then they yield the last interval's mask. `starts`, `masks`
/// and `ternary` point at the matcher's spans of the plan's pools,
/// resolved once the pools are final, so the serve path adds no pool
/// bases.
struct CompiledMatcher {
  const std::uint32_t* starts = nullptr;
  const std::uint64_t* masks = nullptr;
  const TernaryTerm* ternary = nullptr;
  std::uint8_t field = 0;  // FieldId
  std::uint32_t interval_count = 0;
  std::uint32_t ternary_count = 0;
  std::uint32_t interval_begin = 0;
  std::uint32_t ternary_begin = 0;
};

/// Entries per classifier block: one bit each in a uint64_t mask.
inline constexpr std::uint32_t kBlockEntries = 64;

/// Up to kBlockEntries consecutive winner-order entries of one slot:
/// block k's bit b stands for entry base + b, base = k * kBlockEntries.
/// `all` holds the entries that can match at all (an entry with a
/// condition that can never hold is left out). The block's
/// matcher_count matchers follow the previous block's in the pool;
/// [matchers, matchers_end) is that span, resolved once the pool is
/// final.
struct CompiledBlock {
  std::uint64_t all = 0;
  const CompiledMatcher* matchers = nullptr;
  const CompiledMatcher* matchers_end = nullptr;
  std::int32_t base = 0;
  std::uint32_t matcher_count = 0;
};

/// One emitted action: an inline opcode with its argument, or an index
/// into the plan's opaque callback pool.
struct CompiledAction {
  ActionTraits::Kind kind = ActionTraits::Kind::kOpaque;
  /// Set meta.recirculate after the body unless the packet dropped
  /// (inline opcodes only; opaque callbacks already carry the REC
  /// wrapper inside the registered std::function).
  bool recirculate = false;
  std::uint64_t arg0 = 0;
  std::int32_t opaque = -1;
};

/// One (stage, table) of a compiled pass.
struct CompiledSlot {
  MatchActionTable* table = nullptr;
  /// Index into CompiledPlan::tables (and PlanDeltas::tables).
  std::uint32_t table_index = 0;
  std::uint16_t stage = 0;
  SlotKind kind = SlotKind::kDead;
  bool has_default = false;
  CompiledAction default_action;
  /// The slot's classifier: blocks [block_begin, block_begin +
  /// block_count) of CompiledPlan::blocks, in winner order, whose
  /// matchers start at matcher_begin (none for kAlways and kDead
  /// slots); `blocks` points at the first, resolved once the pool is
  /// final. The blocks cover only the entries before the first one
  /// that constrains no field: later entries can never win, and when no
  /// block matches that entry wins (miss_winner; -1 if there is none).
  /// The winning entry e runs actions[e].
  std::uint32_t block_begin = 0;
  std::uint32_t block_count = 0;
  std::uint32_t matcher_begin = 0;
  std::int32_t miss_winner = -1;
  const CompiledBlock* blocks = nullptr;
  std::vector<CompiledAction> actions;
};

/// A fused extraction group: `slot_count` consecutive slots whose
/// fields are extracted once, then matched eagerly before any member's
/// action runs.
struct CompiledGroup {
  std::uint32_t slot_begin = 0;
  std::uint32_t slot_count = 0;
  /// FieldIds to extract at group entry (union of member reads).
  std::vector<std::uint8_t> extract_fields;
};

/// One recirculation pass of the compiled program.
struct CompiledPass {
  std::vector<CompiledSlot> slots;
  std::vector<CompiledGroup> groups;
};

/// An admitted tenant's compiled program.
struct CompiledPlan {
  std::uint16_t tenant = 0;
  int num_stages = 0;
  /// Indexed by meta.pass; higher pass values execute `tail`.
  std::vector<CompiledPass> passes;
  CompiledPass tail;
  /// Plan-wide classifier pools (spans referenced by the slots, blocks
  /// and matchers). `starts` and `masks` are parallel; a start fits 32
  /// bits because no field is wider (FieldMaxValue). The slots, blocks
  /// and matchers point into these vectors, which stay put because a
  /// plan is never copied or moved (global_seen is atomic).
  std::vector<CompiledBlock> blocks;
  std::vector<CompiledMatcher> matchers;
  std::vector<std::uint32_t> starts;
  std::vector<std::uint64_t> masks;
  std::vector<TernaryTerm> ternary;
  struct OpaqueAction {
    ActionFn fn;
    ActionArgs args;
  };
  std::vector<OpaqueAction> opaque_actions;
  /// Every lifted table, program order.
  std::vector<MatchActionTable*> tables;
  /// The pipeline's mutation stamps (nullptr for hand-built plans) and
  /// the two this plan was lifted at (see TenantIr).
  const MutationStamps* stamps = nullptr;
  std::uint64_t tenant_stamp = 0;
  std::uint64_t all_tenants_stamp = 0;
  /// Last global stamp at which both recorded stamps were verified
  /// unchanged. Serve workers advance it monotonically (relaxed:
  /// re-verification is idempotent), so the per-packet Validate fast
  /// path is one relaxed load.
  mutable std::atomic<std::uint64_t> global_seen{0};
  PassStats stats;

  /// True while no write that could reach this tenant's lookups has
  /// happened since compile time — checked per packet as the
  /// invalidation backstop. Fast path: if NOTHING in the pipeline
  /// mutated since the last full check, neither stamp moved. The
  /// global stamp is read before the two scoped ones, so a write
  /// racing the check leaves `global_seen` behind it and the next
  /// packet re-checks.
  bool Validate() const {
    if (stamps == nullptr) return true;
    const std::uint64_t global = stamps->global();
    if (global == global_seen.load(std::memory_order_relaxed)) return true;
    // Pairs with the release fence in MutationStamps::Bump: every
    // scoped bump ordered before the observed global value is visible
    // to the loads below.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stamps->tenant(tenant) != tenant_stamp ||
        stamps->all_tenants() != all_tenants_stamp) {
      return false;
    }
    global_seen.store(global, std::memory_order_relaxed);
    return true;
  }
};

/// The mask of `matcher`'s block entries whose condition on its field
/// holds for `value`.
inline std::uint64_t MatchField(const CompiledMatcher& matcher, std::uint64_t value) {
  // Branch-free search for the last start <= value (starts[0] == 0):
  // random field values would mispredict a branch on every step.
  // Halve the range down to four starts, then count the ones after the
  // first that are <= value with independent compares. Past the range
  // lie only starts > value or the padding (see CompiledMatcher).
  const std::uint32_t* starts = matcher.starts;
  std::uint32_t at = 0;
  for (std::uint32_t n = matcher.interval_count; n > 4;) {
    const std::uint32_t half = n / 2;
    at = starts[at + half] <= value ? at + half : at;
    n -= half;
  }
  const std::uint32_t* rest = starts + at;
  at += static_cast<std::uint32_t>(rest[1] <= value) + static_cast<std::uint32_t>(rest[2] <= value) +
        static_cast<std::uint32_t>(rest[3] <= value);
  std::uint64_t mask = matcher.masks[at];
  const TernaryTerm* term = matcher.ternary;
  for (std::uint32_t t = 0; t < matcher.ternary_count; ++t, ++term) {
    mask |= term->bit & (std::uint64_t{0} - ((value & term->mask) == term->value_bits));
  }
  return mask;
}

/// The winner-order index of matched `slot`'s winning entry for the
/// extracted field values (indexed by FieldId), or -1 when no entry
/// matches.
inline std::int32_t MatchSlot(const CompiledSlot& slot, const std::uint64_t* values) {
  const CompiledBlock* const end = slot.blocks + slot.block_count;
  for (const CompiledBlock* block = slot.blocks; block != end; ++block) {
    std::uint64_t m = block->all;
    for (const CompiledMatcher* matcher = block->matchers; matcher != block->matchers_end && m != 0;
         ++matcher) {
      m &= MatchField(*matcher, values[matcher->field]);
    }
    if (m != 0) return block->base + std::countr_zero(m);
  }
  return slot.miss_winner;
}

/// Emits the executable plan from a lowered IR (stats are carried along
/// for the plan cache's compiler.* counters).
std::shared_ptr<const CompiledPlan> EmitPlan(const TenantIr& ir, const PassStats& stats);

/// Lift + lower + emit for one tenant. Returns nullptr (and sets
/// `error` when non-null) if the tenant hits an unsupported construct
/// and must stay interpreted.
std::shared_ptr<const CompiledPlan> CompileTenant(const Pipeline& pipeline,
                                                  std::uint16_t tenant,
                                                  const ActionMetadata* metadata,
                                                  std::string* error = nullptr);

}  // namespace sfp::switchsim::compiler
