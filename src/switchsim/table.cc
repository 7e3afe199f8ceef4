#include "switchsim/table.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/faultinject.h"
#include "switchsim/flow_cache.h"

namespace sfp::switchsim {

namespace {

/// splitmix64 finalizer — mixes one word into an accumulating hash.
std::uint64_t MixWord(std::uint64_t h, std::uint64_t word) {
  h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

}  // namespace

std::size_t MatchActionTable::ExactKeyHash::operator()(
    std::span<const std::uint64_t> key) const {
  std::uint64_t h = 0x94d049bb133111ebULL;
  for (const std::uint64_t word : key) h = MixWord(h, word);
  return static_cast<std::size_t>(h);
}

MutationStamps::~MutationStamps() {
  for (auto& page : pages_) delete page.load(std::memory_order_relaxed);
}

void MutationStamps::Bump(std::optional<std::uint16_t> tenant) {
  if (tenant) {
    auto& slot = pages_[*tenant >> kPageBits];
    Page* page = slot.load(std::memory_order_acquire);
    if (page == nullptr) {
      // Tables of one pipeline write under different locks, so two
      // first writes to a page can race; the loser frees its copy.
      auto fresh = std::make_unique<Page>();
      if (slot.compare_exchange_strong(page, fresh.get(), std::memory_order_acq_rel)) {
        page = fresh.release();
      }
    }
    page->stamps[*tenant & kPageMask].Add(1);
  } else {
    all_tenants_.Add(1);
  }
  std::atomic_thread_fence(std::memory_order_release);
  global_.Add(1);
}

MatchActionTable::MatchActionTable(std::string name, std::vector<MatchFieldSpec> key)
    : name_(std::move(name)), key_(std::move(key)) {
  SFP_CHECK_LE(key_.size(), kMaxKeyFields);
  for (std::size_t f = 0; f < key_.size(); ++f) {
    if (key_[f].kind == MatchKind::kExact) {
      exact_fields_.push_back(f);
      if (key_[f].field == FieldId::kTenantId && tenant_field_ == kNoKeyField) {
        tenant_field_ = f;
      } else if (key_[f].field == FieldId::kPass && pass_field_ == kNoKeyField) {
        pass_field_ = f;
      }
    } else {
      nonexact_fields_.push_back(f);
    }
  }
}

ActionId MatchActionTable::RegisterAction(std::string name, ActionFn fn) {
  std::unique_lock lock(entries_mutex_);
  action_names_.push_back(std::move(name));
  actions_.push_back(std::move(fn));
  return static_cast<ActionId>(actions_.size() - 1);
}

void MatchActionTable::SetDefaultAction(ActionId action, ActionArgs args) {
  std::unique_lock lock(entries_mutex_);
  SFP_CHECK_GE(action, 0);
  SFP_CHECK_LT(static_cast<std::size_t>(action), actions_.size());
  default_action_ = {action, std::move(args)};
  // Memoized miss decisions must re-resolve, and every tenant's
  // compiled plan carries this default.
  BumpEpoch(std::nullopt);
}

bool MatchActionTable::IsPureEntry(const TableEntry& entry) const {
  for (const std::size_t f : nonexact_fields_) {
    const FieldMatch& m = entry.matches[f];
    switch (key_[f].kind) {
      case MatchKind::kTernary:
        if (m.mask != 0) return false;
        break;
      case MatchKind::kLpm:
        if (m.prefix_len > 0) return false;
        break;
      case MatchKind::kRange:
        if (m.lo != 0 || m.hi != ~0ULL) return false;
        break;
      case MatchKind::kExact:
        break;  // unreachable: exact fields are not in nonexact_fields_
    }
  }
  return true;
}

bool MatchActionTable::HasWildcardExact(const TableEntry& entry) const {
  for (const std::size_t f : exact_fields_) {
    if (entry.matches[f].mask == 0) return true;
  }
  return false;
}

std::size_t MatchActionTable::ExactKeyOf(const TableEntry& entry,
                                         std::uint64_t* key) const {
  std::size_t n = 0;
  for (const std::size_t f : exact_fields_) key[n++] = entry.matches[f].value;
  return n;
}

std::optional<std::uint16_t> MatchActionTable::WriteScope(const TableEntry& entry) const {
  if (tenant_field_ == kNoKeyField) return std::nullopt;
  const FieldMatch& m = entry.matches[tenant_field_];
  // A value beyond the 16-bit tenant space matches no packet and names
  // no tenant; such an entry is scoped to all tenants (conservative).
  if (m.mask == 0 || m.value > 0xFFFF) return std::nullopt;
  return static_cast<std::uint16_t>(m.value);
}

int MatchActionTable::PrefixScore(const TableEntry& entry) const {
  int score = 0;
  for (std::size_t f = 0; f < key_.size(); ++f) {
    if (key_[f].kind == MatchKind::kLpm) score += entry.matches[f].prefix_len;
  }
  return score;
}

void MatchActionTable::IndexEntryLocked(std::size_t index) {
  const TableEntry& entry = entries_[index];
  if (const auto tenant = WriteScope(entry)) by_tenant_[*tenant].push_back(index);
  if (HasWildcardExact(entry)) {
    // A wildcarded exact field matches every probe value, so the entry
    // is unreachable from any single hash bucket; park it in the side
    // tier (priority desc, handle asc — the new entry has the largest
    // handle, so it slots after its priority peers).
    const auto pos = std::upper_bound(
        wildcard_spill_.begin(), wildcard_spill_.end(), entry.priority,
        [this](int priority, std::size_t i) { return entries_[i].priority < priority; });
    wildcard_spill_.insert(pos, index);
    return;
  }
  std::uint64_t key[kMaxKeyFields];
  const std::size_t n = ExactKeyOf(entry, key);
  const std::span<const std::uint64_t> probe(key, n);
  auto it = index_.find(probe);
  if (it == index_.end()) {
    it = index_.emplace(std::vector<std::uint64_t>(probe.begin(), probe.end()), Bucket{}).first;
  }
  Bucket& bucket = it->second;
  if (IsPureEntry(entry)) {
    // The pure tier's winner is fully determined at install time:
    // pure entries share a prefix score of 0, so only (priority,
    // earliest handle) discriminate. Insertion happens in ascending
    // handle order, so a strict priority improvement is the only way
    // to displace the incumbent.
    if (bucket.pure == Bucket::npos) {
      bucket.pure = index;
    } else if (entry.priority > entries_[bucket.pure].priority) {
      bucket.shadowed.push_back(bucket.pure);
      bucket.pure = index;
    } else {
      bucket.shadowed.push_back(index);
    }
    return;
  }
  // Spill stays sorted by (priority desc, handle asc); the new entry
  // carries the largest handle, so it slots after its priority peers.
  const auto pos = std::upper_bound(
      bucket.spill.begin(), bucket.spill.end(), entry.priority,
      [this](int priority, std::size_t i) { return entries_[i].priority < priority; });
  bucket.spill.insert(pos, index);
}

void MatchActionTable::RemoveIndicesLocked(const std::vector<std::size_t>& removed) {
  const auto is_removed = [&removed](std::size_t i) {
    return std::binary_search(removed.begin(), removed.end(), i);
  };

  // 1. Unlink the removed entries from their buckets and tenant lists;
  //    note the tenants they were scoped to.
  std::vector<decltype(index_)::iterator> touched;
  std::vector<std::uint16_t> tenants;
  bool all_tenants = false;
  bool wildcard_removed = false;
  for (const std::size_t i : removed) {
    const TableEntry& entry = entries_[i];
    if (const auto tenant = WriteScope(entry)) {
      if (std::find(tenants.begin(), tenants.end(), *tenant) == tenants.end()) {
        tenants.push_back(*tenant);
      }
    } else {
      all_tenants = true;
    }
    if (HasWildcardExact(entry)) {
      wildcard_removed = true;
      continue;
    }
    std::uint64_t key[kMaxKeyFields];
    const std::size_t n = ExactKeyOf(entry, key);
    const auto it = index_.find(std::span<const std::uint64_t>(key, n));
    SFP_CHECK(it != index_.end());
    if (std::find(touched.begin(), touched.end(), it) == touched.end()) {
      touched.push_back(it);
    }
    Bucket& bucket = it->second;
    if (bucket.pure == i) {
      bucket.pure = Bucket::npos;
    } else if (IsPureEntry(entry)) {
      std::erase(bucket.shadowed, i);
    } else {
      std::erase(bucket.spill, i);
    }
  }
  // A bucket whose winner left promotes its best shadowed pure entry
  // (highest priority, then earliest handle == smallest index); a
  // bucket left empty is dropped.
  for (const auto it : touched) {
    Bucket& bucket = it->second;
    if (bucket.pure == Bucket::npos && !bucket.shadowed.empty()) {
      auto best = bucket.shadowed.begin();
      for (auto s = best + 1; s != bucket.shadowed.end(); ++s) {
        const int p = entries_[*s].priority;
        const int bp = entries_[*best].priority;
        if (p > bp || (p == bp && *s < *best)) best = s;
      }
      bucket.pure = *best;
      bucket.shadowed.erase(best);
    }
    if (bucket.pure == Bucket::npos && bucket.spill.empty()) index_.erase(it);
  }
  if (wildcard_removed) std::erase_if(wildcard_spill_, is_removed);
  for (const std::uint16_t tenant : tenants) {
    const auto it = by_tenant_.find(tenant);
    std::erase_if(it->second, is_removed);
    if (it->second.empty()) by_tenant_.erase(it);
  }

  // 2. Compact entries_ in place, keeping install order.
  std::size_t write = removed.front();
  std::size_t next_removed = 0;
  for (std::size_t read = removed.front(); read < entries_.size(); ++read) {
    if (next_removed < removed.size() && removed[next_removed] == read) {
      ++next_removed;
      continue;
    }
    entries_[write++] = std::move(entries_[read]);
  }
  entries_.resize(write);

  // 3. Shift every surviving index past the first removed one down by
  //    the number of removed entries before it.
  const auto shift = [&removed](std::size_t& i) {
    if (i == Bucket::npos || i < removed.front()) return;
    i -= static_cast<std::size_t>(std::lower_bound(removed.begin(), removed.end(), i) -
                                  removed.begin());
  };
  for (auto& kv : index_) {
    Bucket& bucket = kv.second;
    shift(bucket.pure);
    for (std::size_t& i : bucket.shadowed) shift(i);
    for (std::size_t& i : bucket.spill) shift(i);
  }
  for (std::size_t& i : wildcard_spill_) shift(i);
  for (auto& kv : by_tenant_) {
    for (std::size_t& i : kv.second) shift(i);
  }

  for (const std::uint16_t tenant : tenants) BumpEpoch(tenant);
  if (all_tenants) BumpEpoch(std::nullopt);
}

EntryHandle MatchActionTable::AddEntry(std::vector<FieldMatch> matches, ActionId action,
                                       ActionArgs args, int priority,
                                       std::uint16_t owner_tenant) {
  if (SFP_FAULT("switchsim.table.add_entry")) return kInvalidEntryHandle;
  std::unique_lock lock(entries_mutex_);
  SFP_CHECK_MSG(matches.size() == key_.size(), "entry key arity mismatch");
  SFP_CHECK_GE(action, 0);
  SFP_CHECK_LT(static_cast<std::size_t>(action), actions_.size());
  TableEntry entry;
  entry.matches = std::move(matches);
  entry.action = action;
  entry.args = std::move(args);
  entry.priority = priority;
  entry.owner_tenant = owner_tenant;
  entry.handle = next_handle_++;
  entries_.push_back(std::move(entry));
  IndexEntryLocked(entries_.size() - 1);
  BumpEpoch(WriteScope(entries_.back()));
  return entries_.back().handle;
}

bool MatchActionTable::RemoveEntry(EntryHandle handle) {
  std::unique_lock lock(entries_mutex_);
  // entries_ stays in install order, i.e. sorted by handle.
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), handle,
      [](const TableEntry& e, EntryHandle h) { return e.handle < h; });
  if (it == entries_.end() || it->handle != handle) return false;
  RemoveIndicesLocked({static_cast<std::size_t>(it - entries_.begin())});
  return true;
}

std::size_t MatchActionTable::RemoveTenantEntries(std::uint16_t tenant) {
  std::unique_lock lock(entries_mutex_);
  std::vector<std::size_t> removed;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].owner_tenant == tenant) removed.push_back(i);
  }
  // No epoch bump when nothing was removed: departures of tenants
  // with no rules in this table must not invalidate everyone's
  // cached decisions.
  if (!removed.empty()) RemoveIndicesLocked(removed);
  return removed.size();
}

std::size_t MatchActionTable::num_entries() const {
  std::shared_lock lock(entries_mutex_);
  return entries_.size();
}

void MatchActionTable::ExtractKey(const net::Packet& packet, const PacketMeta& meta,
                                  std::uint64_t* values) const {
  for (std::size_t f = 0; f < key_.size(); ++f) {
    values[f] = GetField(packet, meta, key_[f].field);
  }
}

const TableEntry* MatchActionTable::Lookup(const net::Packet& packet,
                                           const PacketMeta& meta) const {
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);
  return LookupIndexedLocked(values);
}

const TableEntry* MatchActionTable::LookupReference(const net::Packet& packet,
                                                    const PacketMeta& meta) const {
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);
  return LookupReferenceLocked(values);
}

const TableEntry* MatchActionTable::LookupIndexedLocked(const std::uint64_t* values) const {
  // Stack-array probe via the transparent hash — the per-packet serve
  // path allocates nothing here.
  std::uint64_t exact[kMaxKeyFields];
  std::size_t n = 0;
  for (const std::size_t f : exact_fields_) exact[n++] = values[f];
  const auto it = index_.find(std::span<const std::uint64_t>(exact, n));

  const TableEntry* best = nullptr;
  int best_priority = 0;
  int best_prefix = -1;
  EntryHandle best_handle = 0;
  if (it != index_.end()) {
    const Bucket& bucket = it->second;
    if (bucket.pure != Bucket::npos) {
      best = &entries_[bucket.pure];
      best_priority = best->priority;
      best_prefix = PrefixScore(*best);
      best_handle = best->handle;
    }
    for (const std::size_t index : bucket.spill) {
      const TableEntry& entry = entries_[index];
      // Spill is priority-sorted: once the candidate's priority falls
      // below the best match, nothing later can outrank it (equal
      // priority can still win on LPM prefix, so only strictly-lower
      // priorities are skipped).
      if (best != nullptr && entry.priority < best_priority) break;
      bool match = true;
      for (const std::size_t f : nonexact_fields_) {
        if (!FieldMatches(entry.matches[f], key_[f].kind, values[f])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      const int prefix = PrefixScore(entry);
      if (best == nullptr || entry.priority > best_priority ||
          (entry.priority == best_priority &&
           (prefix > best_prefix ||
            (prefix == best_prefix && entry.handle < best_handle)))) {
        best = &entry;
        best_priority = entry.priority;
        best_prefix = prefix;
        best_handle = entry.handle;
      }
    }
  }
  // Side tier: entries with a wildcarded exact field (per-pass
  // catch-alls on exact-key NFs). Same priority-sorted early break;
  // concrete fields — exact and non-exact alike — are verified in
  // full because the hash probe never vetted them.
  for (const std::size_t index : wildcard_spill_) {
    const TableEntry& entry = entries_[index];
    if (best != nullptr && entry.priority < best_priority) break;
    bool match = true;
    for (std::size_t f = 0; f < key_.size(); ++f) {
      if (!FieldMatches(entry.matches[f], key_[f].kind, values[f])) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const int prefix = PrefixScore(entry);
    if (best == nullptr || entry.priority > best_priority ||
        (entry.priority == best_priority &&
         (prefix > best_prefix ||
          (prefix == best_prefix && entry.handle < best_handle)))) {
      best = &entry;
      best_priority = entry.priority;
      best_prefix = prefix;
      best_handle = entry.handle;
    }
  }
  return best;
}

const TableEntry* MatchActionTable::LookupReferenceLocked(const std::uint64_t* values) const {
  const TableEntry* best = nullptr;
  int best_priority = 0;
  int best_prefix = -1;
  for (const TableEntry& entry : entries_) {
    bool match = true;
    int prefix_score = 0;
    for (std::size_t f = 0; f < key_.size() && match; ++f) {
      match = FieldMatches(entry.matches[f], key_[f].kind, values[f]);
      if (key_[f].kind == MatchKind::kLpm) prefix_score += entry.matches[f].prefix_len;
    }
    if (!match) continue;
    if (best == nullptr || entry.priority > best_priority ||
        (entry.priority == best_priority && prefix_score > best_prefix)) {
      best = &entry;
      best_priority = entry.priority;
      best_prefix = prefix_score;
    }
  }
  return best;
}

bool MatchActionTable::Apply(net::Packet& packet, PacketMeta& meta,
                             FlowDecisionCache* cache) {
  // Held across the action so the winning entry's args cannot be
  // removed mid-execution by a concurrent tenant departure. The epoch
  // is read under the same lock, so a cached decision validated here
  // cannot refer to an entry a concurrent departure is freeing.
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);

  const TableEntry* entry = nullptr;
  bool resolved = false;
  if (cache != nullptr) {
    const std::uint64_t epoch = epoch_.Value();
    if (const auto* decision = cache->Find(this, values, key_.size(), epoch)) {
      if (decision->hit) {
        // Epoch equality means no mutation since the decision was
        // stored, so the memoized index still names the same entry;
        // the handle check makes that assumption explicit.
        SFP_CHECK_LT(decision->entry_index, entries_.size());
        entry = &entries_[decision->entry_index];
        SFP_CHECK_EQ(entry->handle, decision->handle);
      }
      resolved = true;
    }
    if (!resolved) {
      entry = LookupIndexedLocked(values);
      cache->Store(this, values, key_.size(), epoch, entry,
                   entry != nullptr
                       ? static_cast<std::size_t>(entry - entries_.data())
                       : 0);
      resolved = true;
    }
  }
  if (!resolved) entry = LookupIndexedLocked(values);

  if (entry != nullptr) {
    hits_.Add(1);
    actions_[static_cast<std::size_t>(entry->action)](packet, meta, entry->args);
    return true;
  }
  misses_.Add(1);
  if (default_action_) {
    default_hits_.Add(1);
    actions_[static_cast<std::size_t>(default_action_->first)](packet, meta,
                                                               default_action_->second);
  }
  return false;
}

bool MatchActionTable::NeedsTcam() const {
  return std::any_of(key_.begin(), key_.end(), [](const MatchFieldSpec& spec) {
    return spec.kind == MatchKind::kTernary || spec.kind == MatchKind::kRange;
  });
}

MatchActionTable::TenantSlice MatchActionTable::SliceTenant(std::uint16_t tenant) const {
  std::shared_lock lock(entries_mutex_);
  TenantSlice slice;
  if (const auto it = by_tenant_.find(tenant); it != by_tenant_.end()) {
    slice.entries.reserve(it->second.size());
    for (const std::size_t i : it->second) slice.entries.push_back(entries_[i]);
  }
  slice.actions = actions_;
  slice.action_names = action_names_;
  slice.default_action = default_action_;
  // An entry that wildcards an exact field lives in wildcard_spill_,
  // so that tier is the only place a wildcarded prefix can hide.
  for (const std::size_t i : wildcard_spill_) {
    const TableEntry& entry = entries_[i];
    if ((tenant_field_ != kNoKeyField && entry.matches[tenant_field_].mask == 0) ||
        (pass_field_ != kNoKeyField && entry.matches[pass_field_].mask == 0)) {
      slice.wildcards_prefix = true;
      break;
    }
  }
  return slice;
}

void MatchActionTable::AddApplyCounts(std::uint64_t hits, std::uint64_t misses,
                                      std::uint64_t default_hits) {
  if (hits != 0) hits_.Add(hits);
  if (misses != 0) misses_.Add(misses);
  if (default_hits != 0) default_hits_.Add(default_hits);
}

}  // namespace sfp::switchsim
