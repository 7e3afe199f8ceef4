#include "switchsim/compiler/plan.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace sfp::switchsim::compiler {

namespace {

/// 32-bit prefix mask, mirroring FieldMatches' LPM arithmetic.
std::uint64_t LpmMask(int prefix_len) {
  if (prefix_len >= 32) return 0xFFFFFFFFULL;
  return (0xFFFFFFFFULL << (32 - prefix_len)) & 0xFFFFFFFFULL;
}

CompiledAction CompileAction(const IrAction& act, CompiledPlan& plan) {
  CompiledAction out;
  bool inline_ok = false;
  switch (act.traits.kind) {
    case ActionTraits::Kind::kNoop:
    case ActionTraits::Kind::kDrop:
      inline_ok = true;
      break;
    case ActionTraits::Kind::kSetFlowClass:
    case ActionTraits::Kind::kRoute:
    case ActionTraits::Kind::kSetBackend:
    case ActionTraits::Kind::kSetSrcIp:
      // The inline opcode hard-codes the single-argument form; anything
      // else runs the registered callback so arg checks fire exactly as
      // interpreted.
      inline_ok = act.args.size() == 1;
      if (inline_ok) out.arg0 = act.args[0];
      break;
    case ActionTraits::Kind::kOpaque:
      break;
  }
  if (inline_ok) {
    out.kind = act.traits.kind;
    out.recirculate = act.traits.recirculate;
  } else {
    out.kind = ActionTraits::Kind::kOpaque;
    out.opaque = static_cast<std::int32_t>(plan.opaque_actions.size());
    plan.opaque_actions.push_back({act.fn, act.args});
    // The registered callback is the full action — including any REC
    // wrapper — so the executor must not re-apply recirculation.
    out.recirculate = false;
  }
  return out;
}

/// One entry's condition on one field, in the classifier's terms.
struct FieldCondition {
  enum class Form { kNever, kInterval, kTernary } form = Form::kNever;
  std::uint64_t lo = 0;  // kInterval: [lo, hi]; kTernary: value bits
  std::uint64_t hi = 0;  // kTernary: mask
};

/// Rewrites a non-wildcard pattern exactly as FieldMatches evaluates it
/// on values of the field's width `max` (every ExtractField result is
/// at most FieldMaxValue of its field).
FieldCondition Classify(const FieldMatch& m, MatchKind kind, std::uint64_t max) {
  using Form = FieldCondition::Form;
  std::uint64_t value = 0;
  std::uint64_t mask = 0;
  switch (kind) {
    case MatchKind::kExact:
      if (m.value > max) return {};
      return {Form::kInterval, m.value, m.value};
    case MatchKind::kRange:
      if (m.lo > m.hi || m.lo > max) return {};
      return {Form::kInterval, m.lo, std::min(m.hi, max)};
    case MatchKind::kTernary:
      mask = m.mask;
      value = m.value & mask;
      break;
    case MatchKind::kLpm:
      mask = LpmMask(m.prefix_len);
      value = m.value & mask;
      break;
  }
  // A value bit outside the width can never be matched by a packet.
  if ((value & ~max) != 0) return {};
  mask &= max;
  const std::uint64_t free = max & ~mask;
  // Free bits contiguous at the low end: the values form one interval.
  if ((free & (free + 1)) == 0) return {Form::kInterval, value, value | free};
  return {Form::kTernary, value, mask};
}

/// Builds the classifier blocks of a slot into the plan's pools. The
/// scratch vector is reused across slots so emission allocates only
/// when a pool grows.
class ClassifierBuilder {
 public:
  explicit ClassifierBuilder(CompiledPlan& plan) : plan_(plan) {}

  void Build(const IrSlot& ir_slot, CompiledSlot& slot) {
    slot.block_begin = static_cast<std::uint32_t>(plan_.blocks.size());
    slot.matcher_begin = static_cast<std::uint32_t>(plan_.matchers.size());
    // Entries past the first one that constrains no field are shadowed
    // by it.
    const auto unconditional = [&ir_slot](const IrEntry& entry) {
      for (const std::size_t f : ir_slot.payload_fields) {
        const MatchFieldSpec& spec = ir_slot.key[f];
        if (!IsWildcardMatch(entry.matches[f], spec.kind, spec.field)) return false;
      }
      return true;
    };
    std::size_t reach = 0;
    while (reach < ir_slot.entries.size() && !unconditional(ir_slot.entries[reach])) ++reach;
    if (reach < ir_slot.entries.size()) slot.miss_winner = static_cast<std::int32_t>(reach);
    for (std::size_t base = 0; base < reach; base += kBlockEntries) {
      const std::size_t count = std::min<std::size_t>(kBlockEntries, reach - base);
      const std::size_t matcher_begin = plan_.matchers.size();
      CompiledBlock block;
      block.all = count == kBlockEntries ? ~0ULL : (1ULL << count) - 1;
      block.base = static_cast<std::int32_t>(base);
      for (const std::size_t f : ir_slot.payload_fields) {
        AddMatcher(ir_slot, f, base, count, block);
      }
      block.matcher_count = static_cast<std::uint32_t>(plan_.matchers.size() - matcher_begin);
      plan_.blocks.push_back(block);
    }
    slot.block_count = static_cast<std::uint32_t>(plan_.blocks.size()) - slot.block_begin;
  }

 private:
  /// Emits the matcher for key field `f` over entries [base, base +
  /// count), unless none of them constrains it. Entries with a
  /// condition that can never hold leave `block.all`.
  void AddMatcher(const IrSlot& ir_slot, std::size_t f, std::size_t base, std::size_t count,
                  CompiledBlock& block) {
    const MatchFieldSpec& spec = ir_slot.key[f];
    const std::uint64_t max = FieldMaxValue(spec.field);
    CompiledMatcher matcher;
    matcher.field = static_cast<std::uint8_t>(spec.field);
    matcher.ternary_begin = static_cast<std::uint32_t>(plan_.ternary.size());
    std::uint64_t unconstrained = 0;
    bool constrained = false;
    events_.clear();
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint64_t bit = 1ULL << b;
      const FieldMatch& m = ir_slot.entries[base + b].matches[f];
      if (IsWildcardMatch(m, spec.kind, spec.field)) {
        unconstrained |= bit;
        continue;
      }
      constrained = true;
      const FieldCondition cond = Classify(m, spec.kind, max);
      switch (cond.form) {
        case FieldCondition::Form::kNever:
          block.all &= ~bit;
          break;
        case FieldCondition::Form::kInterval:
          // The bit toggles on at lo and off past hi.
          events_.push_back(Event(cond.lo, b));
          if (cond.hi < max) events_.push_back(Event(cond.hi + 1, b));
          break;
        case FieldCondition::Form::kTernary:
          plan_.ternary.push_back({cond.lo, cond.hi, bit});
          break;
      }
    }
    if (!constrained) return;
    matcher.ternary_count =
        static_cast<std::uint32_t>(plan_.ternary.size()) - matcher.ternary_begin;

    // Sweep the sorted bounds into elementary intervals, merging
    // neighbours with equal masks.
    std::sort(events_.begin(), events_.end());
    matcher.interval_begin = static_cast<std::uint32_t>(plan_.starts.size());
    plan_.starts.push_back(0);
    plan_.masks.push_back(unconstrained);
    std::uint64_t mask = unconstrained;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const std::uint64_t pos = events_[i] >> kEventBits;
      mask ^= 1ULL << (events_[i] & (kBlockEntries - 1));
      if (i + 1 < events_.size() && (events_[i + 1] >> kEventBits) == pos) continue;
      if (pos == 0) {
        plan_.masks.back() = mask;
      } else if (mask != plan_.masks.back()) {
        plan_.starts.push_back(static_cast<std::uint32_t>(pos));
        plan_.masks.push_back(mask);
      }
    }
    matcher.interval_count =
        static_cast<std::uint32_t>(plan_.starts.size()) - matcher.interval_begin;
    for (std::uint32_t pad = 0; pad < kMatcherPadding; ++pad) {
      plan_.starts.push_back(~std::uint32_t{0});
      plan_.masks.push_back(plan_.masks.back());
    }
    plan_.matchers.push_back(matcher);
  }

  /// A bound as one sortable word: the position (at most 32 bits) over
  /// the entry's bit index.
  static constexpr int kEventBits = 6;
  static std::uint64_t Event(std::uint64_t pos, std::size_t bit_index) {
    return pos << kEventBits | bit_index;
  }

  CompiledPlan& plan_;
  std::vector<std::uint64_t> events_;
};

void EmitPass(const IrPass& ir_pass, CompiledPlan& plan,
              const std::unordered_map<const MatchActionTable*, std::uint32_t>& table_index,
              ClassifierBuilder& classifier, CompiledPass& out) {
  for (const IrSlot& ir_slot : ir_pass.slots) {
    CompiledSlot slot;
    slot.table = ir_slot.table;
    slot.table_index = table_index.at(ir_slot.table);
    slot.stage = static_cast<std::uint16_t>(ir_slot.stage);
    slot.kind = ir_slot.kind;
    if (ir_slot.default_act) {
      slot.has_default = true;
      slot.default_action = CompileAction(*ir_slot.default_act, plan);
    }
    // kAlways: the winner fires without matching, so no blocks.
    if (ir_slot.kind == SlotKind::kMatch) classifier.Build(ir_slot, slot);
    slot.actions.reserve(ir_slot.entries.size());
    for (const IrEntry& entry : ir_slot.entries) {
      slot.actions.push_back(CompileAction(entry.act, plan));
    }
    out.slots.push_back(std::move(slot));
  }

  // Extraction groups from the fusion pass's annotations: consecutive
  // slots sharing a fusion_group id.
  std::size_t begin = 0;
  while (begin < ir_pass.slots.size()) {
    std::size_t end = begin + 1;
    while (end < ir_pass.slots.size() &&
           ir_pass.slots[end].fusion_group == ir_pass.slots[begin].fusion_group) {
      ++end;
    }
    CompiledGroup group;
    group.slot_begin = static_cast<std::uint32_t>(begin);
    group.slot_count = static_cast<std::uint32_t>(end - begin);
    FieldSet reads = kNoFields;
    for (std::size_t s = begin; s < end; ++s) reads |= ir_pass.slots[s].reads;
    for (unsigned f = 0; f < kNumFields; ++f) {
      if ((reads & (FieldSet{1} << f)) != 0) {
        group.extract_fields.push_back(static_cast<std::uint8_t>(f));
      }
    }
    out.groups.push_back(std::move(group));
    begin = end;
  }
}

}  // namespace

std::shared_ptr<const CompiledPlan> EmitPlan(const TenantIr& ir, const PassStats& stats) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->tenant = ir.tenant;
  plan->num_stages = ir.num_stages;
  plan->tables = ir.tables;
  plan->stamps = ir.stamps;
  plan->tenant_stamp = ir.tenant_stamp;
  plan->all_tenants_stamp = ir.all_tenants_stamp;
  plan->stats = stats;

  std::unordered_map<const MatchActionTable*, std::uint32_t> table_index;
  for (std::size_t i = 0; i < ir.tables.size(); ++i) {
    table_index.emplace(ir.tables[i], static_cast<std::uint32_t>(i));
  }

  ClassifierBuilder classifier(*plan);
  for (const IrPass& ir_pass : ir.passes) {
    CompiledPass pass;
    EmitPass(ir_pass, *plan, table_index, classifier, pass);
    plan->passes.push_back(std::move(pass));
  }
  EmitPass(ir.tail, *plan, table_index, classifier, plan->tail);
  // The pools are final: resolve the spans the executor reads through.
  for (CompiledMatcher& matcher : plan->matchers) {
    matcher.starts = plan->starts.data() + matcher.interval_begin;
    matcher.masks = plan->masks.data() + matcher.interval_begin;
    matcher.ternary = plan->ternary.data() + matcher.ternary_begin;
  }
  const auto resolve = [&plan](CompiledPass& pass) {
    for (CompiledSlot& slot : pass.slots) {
      slot.blocks = plan->blocks.data() + slot.block_begin;
      const CompiledMatcher* matcher = plan->matchers.data() + slot.matcher_begin;
      for (std::uint32_t b = 0; b < slot.block_count; ++b) {
        CompiledBlock& block = plan->blocks[slot.block_begin + b];
        block.matchers = matcher;
        matcher += block.matcher_count;
        block.matchers_end = matcher;
      }
    }
  };
  for (CompiledPass& pass : plan->passes) resolve(pass);
  resolve(plan->tail);
  return plan;
}

std::shared_ptr<const CompiledPlan> CompileTenant(const Pipeline& pipeline,
                                                  std::uint16_t tenant,
                                                  const ActionMetadata* metadata,
                                                  std::string* error) {
  LiftResult lifted = LiftTenant(pipeline, tenant, metadata);
  if (!lifted.ok) {
    if (error != nullptr) *error = std::move(lifted.error);
    return nullptr;
  }
  const PassStats stats = RunLoweringPasses(lifted.ir);
  return EmitPlan(lifted.ir, stats);
}

}  // namespace sfp::switchsim::compiler
