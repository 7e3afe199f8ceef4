// Match-action table (MAT) of the switch simulator.
//
// A table declares a match key (a list of fields with match kinds),
// registers its actions as callbacks, and holds prioritized entries.
// Lookup semantics follow P4 targets: the highest-priority matching
// entry wins; among LPM fields the longest prefix wins; ties resolve to
// the earliest-installed entry. A miss applies the default action
// (SFP's physical NFs default to "No-Op": forward to the next stage,
// §IV).
//
// Lookup is indexed, mirroring how the rules land in Tofino SRAM/TCAM
// (§IV, Fig. 4): every entry's exact-kind key fields form a concrete
// value tuple (SFP prefixes every physical NF key with the exact
// tenant-ID and recirculation-pass fields), so entries are bucketed in
// a hash map keyed by that tuple. Within a bucket, entries whose
// remaining (ternary/LPM/range) fields are all wildcards form the
// "pure" hash tier — their winner is precomputed, making the common
// SFP lookup O(1) — while the rest sit in a priority-sorted spill list
// that is scanned only for the packet's own bucket and abandoned as
// soon as no remaining spill entry can outrank the best candidate.
// Lookup cost is therefore independent of how many *other* tenants
// hold rules in the table. The pre-index linear scan is kept as
// LookupReference for the randomized equivalence suite.
//
// Concurrency: Apply/Lookup take a shared lock and the hit/miss
// counters are relaxed atomics, so many packets can traverse the table
// in parallel (the batched path of Pipeline::ProcessBatch) while entry
// installation/removal — tenant admission and departure — takes the
// lock exclusively, mirroring a switch ASIC's lock-free lookups with
// serialized control-plane writes. Every mutation bumps a per-table
// epoch counter; the flow decision cache (flow_cache.h) uses it to
// invalidate memoized decisions when the control plane changes the
// table. Inside a pipeline every mutation also bumps the pipeline's
// MutationStamps, scoped to the tenant whose entries it changed, which
// is what compiled plans revalidate against (CompiledPlan::Validate).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "switchsim/types.h"

namespace sfp::switchsim {

/// Action arguments are plain 64-bit words (P4 action data).
using ActionArgs = std::vector<std::uint64_t>;

/// Action implementation: mutates the packet and/or metadata.
using ActionFn = std::function<void(net::Packet&, PacketMeta&, const ActionArgs&)>;

/// Identifier of a registered action within one table.
using ActionId = std::int32_t;

/// Entry handle, unique within one table for its lifetime. Handles are
/// issued in install order, so "earliest installed" == smallest handle.
using EntryHandle = std::uint64_t;

/// Returned by AddEntry when the install fails (only possible under an
/// armed "switchsim.table.add_entry" fault plan; real inserts cannot
/// fail — memory admission is the stages' job).
inline constexpr EntryHandle kInvalidEntryHandle = 0;

/// Upper bound on key fields per table (fits every NF key plus the
/// (tenant, pass) prefix with room to spare).
inline constexpr std::size_t kMaxKeyFields = 16;

class FlowDecisionCache;

/// Key index meaning "the table has no such field".
inline constexpr std::size_t kNoKeyField = static_cast<std::size_t>(-1);

/// Pipeline-wide mutation stamps, shared by every table of one
/// pipeline and bumped only by MatchActionTable's single bump site.
/// SFP prefixes every physical NF key with the exact (tenant, pass)
/// fields, so a write to one tenant's entries cannot change another
/// tenant's lookups: such a write bumps only that tenant's stamp. A
/// compiled plan records its tenant's stamp and the all-tenant stamp
/// when it is lifted and is stale once either moves.
class MutationStamps {
 public:
  MutationStamps() = default;
  ~MutationStamps();
  MutationStamps(const MutationStamps&) = delete;
  MutationStamps& operator=(const MutationStamps&) = delete;

  /// Bumped by every mutation of any table, after its scoped stamp.
  std::uint64_t global() const { return global_.Value(); }
  /// Bumped by mutations that can reach every tenant's lookups:
  /// default-action changes, and entries that wildcard the exact
  /// tenant field or sit in a table without one.
  std::uint64_t all_tenants() const { return all_tenants_.Value(); }
  /// Bumped by mutations of entries whose exact tenant field names
  /// `tenant`.
  std::uint64_t tenant(std::uint16_t tenant) const {
    const Page* page = pages_[tenant >> kPageBits].load(std::memory_order_acquire);
    return page != nullptr ? page->stamps[tenant & kPageMask].Value() : 0;
  }

  /// Records one mutation scoped to `tenant` (nullopt = all tenants).
  /// The release fence orders the scoped bump before the global one,
  /// pairing with the acquire fence in CompiledPlan::Validate: a reader
  /// that observes the global bump also observes the scoped one.
  void Bump(std::optional<std::uint16_t> tenant);

 private:
  /// Tenant stamps live in 256-tenant pages allocated on a tenant
  /// range's first write, so a pipeline pays only for the tenant IDs
  /// it has seen (the whole 16-bit space would be 512 KiB).
  static constexpr unsigned kPageBits = 8;
  static constexpr unsigned kPageMask = (1u << kPageBits) - 1;
  static constexpr unsigned kNumPages = (1u << 16) >> kPageBits;
  struct Page {
    std::array<common::metrics::RelaxedCounter, 1u << kPageBits> stamps;
  };
  std::array<std::atomic<Page*>, kNumPages> pages_{};
  common::metrics::RelaxedCounter all_tenants_;
  common::metrics::RelaxedCounter global_;
};

/// One installed rule.
struct TableEntry {
  std::vector<FieldMatch> matches;  // parallel to the table's key spec
  ActionId action = 0;
  ActionArgs args;
  /// Higher priority wins on overlap (TCAM semantics).
  int priority = 0;
  /// Owning tenant (0 = infrastructure rule); enables bulk removal when
  /// a tenant's SFC is deallocated.
  std::uint16_t owner_tenant = 0;
  EntryHandle handle = 0;
};

/// A match-action table.
class MatchActionTable {
 public:
  MatchActionTable(std::string name, std::vector<MatchFieldSpec> key);

  /// Registers an action; the returned id is used in entries.
  ActionId RegisterAction(std::string name, ActionFn fn);

  /// Sets the miss behaviour. Without a default action a miss is a
  /// true no-op.
  void SetDefaultAction(ActionId action, ActionArgs args = {});

  /// Installs an entry; returns its handle, or kInvalidEntryHandle when
  /// the "switchsim.table.add_entry" fault point fires (injected
  /// transient install failure). `matches` must have one pattern per
  /// key field and `action` must be registered.
  EntryHandle AddEntry(std::vector<FieldMatch> matches, ActionId action,
                       ActionArgs args = {}, int priority = 0,
                       std::uint16_t owner_tenant = 0);

  /// Removes an entry by handle; returns false if unknown.
  bool RemoveEntry(EntryHandle handle);

  /// Removes all entries owned by `tenant`; returns the removal count.
  std::size_t RemoveTenantEntries(std::uint16_t tenant);

  /// Returns the winning entry for the packet, or nullptr on miss.
  /// The pointer is only stable until the next entry mutation; under
  /// concurrency prefer Apply, which holds the entry lock throughout.
  const TableEntry* Lookup(const net::Packet& packet, const PacketMeta& meta) const;

  /// Reference implementation: the original linear scan over all
  /// entries in install order. Semantically identical to Lookup by
  /// construction; kept (and exercised by the randomized equivalence
  /// suite) as the oracle the indexed path is proven against.
  const TableEntry* LookupReference(const net::Packet& packet,
                                    const PacketMeta& meta) const;

  /// Lookup + action execution (default action on miss). Returns true
  /// if an installed entry was hit. When `cache` is non-null the
  /// resolved decision is memoized per (table, key tuple) and replayed
  /// while the table's epoch is unchanged (see flow_cache.h); results
  /// and counters are bit-identical either way.
  bool Apply(net::Packet& packet, PacketMeta& meta, FlowDecisionCache* cache = nullptr);

  const std::string& name() const { return name_; }
  const std::vector<MatchFieldSpec>& key() const { return key_; }
  std::size_t num_entries() const;
  /// Direct entry access for inspection/P4 emission; not synchronized —
  /// callers must not mutate the table concurrently.
  const std::vector<TableEntry>& entries() const { return entries_; }
  const std::vector<std::string>& action_names() const { return action_names_; }

  /// True if any key field needs TCAM (ternary/range).
  bool NeedsTcam() const;

  std::uint64_t hit_count() const { return hits_.Value(); }
  std::uint64_t miss_count() const { return misses_.Value(); }
  /// Misses that executed the default action (the "default no-op"
  /// served the packet, as opposed to a true no-rule miss). Disjoint
  /// accounting: every Apply is a hit, a default hit, or a bare miss;
  /// default_hit_count() <= miss_count().
  std::uint64_t default_hit_count() const { return default_hits_.Value(); }

  /// Mutation epoch: bumped by every AddEntry/RemoveEntry/
  /// RemoveTenantEntries/SetDefaultAction that changes the table.
  /// Cached decisions stamped with an older epoch are invalid.
  std::uint64_t epoch() const { return epoch_.Value(); }

  /// Attaches the owning pipeline's mutation stamps; tables created
  /// outside a pipeline leave them unset and bump only epoch().
  void SetMutationStamps(MutationStamps* stamps) { stamps_ = stamps; }

  /// Key index of the exact tenant-ID field (the first exact-kind
  /// kTenantId field), or kNoKeyField. Writes are scoped to the tenant
  /// this field names.
  std::size_t tenant_field() const { return tenant_field_; }
  /// Key index of the exact pass field (first exact-kind kPass), or
  /// kNoKeyField.
  std::size_t pass_field() const { return pass_field_; }

  /// Consistent copy of what the pipeline compiler lifts for one
  /// tenant: the entries whose exact tenant field names it, in install
  /// order, the registered action callbacks and names, and the default
  /// action. Taken under the shared entry lock, so it can run
  /// concurrently with packet serving but never observes a
  /// half-applied mutation. Costs O(the tenant's entries): they are
  /// read from a per-tenant entry list, not from a scan.
  struct TenantSlice {
    std::vector<TableEntry> entries;
    std::vector<ActionFn> actions;
    std::vector<std::string> action_names;
    std::optional<std::pair<ActionId, ActionArgs>> default_action;
    /// Some entry wildcards the tenant or pass field (FieldMatch::Any()
    /// on the prefix). It can match every tenant's packets, so no
    /// tenant's rules can be sliced from this table.
    bool wildcards_prefix = false;
  };
  TenantSlice SliceTenant(std::uint16_t tenant) const;

  /// Batched counter commit for the compiled serve path: adds worker-
  /// buffered hit/miss/default-hit sums in one call each. Totals stay
  /// bit-identical to per-Apply bumps because the counts are plain
  /// integer sums.
  void AddApplyCounts(std::uint64_t hits, std::uint64_t misses,
                      std::uint64_t default_hits);

 private:
  /// Per exact-key-tuple bucket of the lookup index. Values index
  /// entries_; they are maintained incrementally on AddEntry and
  /// patched in place on removal.
  struct Bucket {
    /// Winning "pure" entry (all non-exact fields wildcard): highest
    /// priority, earliest handle. npos = none.
    std::size_t pure = npos;
    /// The bucket's other pure entries, which `pure` outranks; one of
    /// them takes over when the winner is removed.
    std::vector<std::size_t> shadowed;
    /// Entries with at least one concrete ternary/LPM/range field,
    /// sorted by (priority desc, handle asc).
    std::vector<std::size_t> spill;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  };

  /// Transparent hash/equality so packet lookups can probe the index
  /// with a stack-array span — no per-packet key vector on the serve
  /// path (insertions still store owning vectors).
  struct ExactKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::span<const std::uint64_t> key) const;
  };
  struct ExactKeyEqual {
    using is_transparent = void;
    bool operator()(std::span<const std::uint64_t> a,
                    std::span<const std::uint64_t> b) const {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
  };

  const TableEntry* LookupIndexedLocked(const std::uint64_t* values) const;
  const TableEntry* LookupReferenceLocked(const std::uint64_t* values) const;
  void ExtractKey(const net::Packet& packet, const PacketMeta& meta,
                  std::uint64_t* values) const;
  /// True if `entry` qualifies for the pure hash tier (every non-exact
  /// key field is a full wildcard).
  bool IsPureEntry(const TableEntry& entry) const;
  /// True if `entry` wildcards at least one exact-kind key field
  /// (mask == 0, the FieldMatch::Any() signature) and therefore lives
  /// in wildcard_spill_ instead of the value-hashed index.
  bool HasWildcardExact(const TableEntry& entry) const;
  /// Writes the entry's exact-field values into `key`; returns the
  /// count (the index key of a concrete-exact entry).
  std::size_t ExactKeyOf(const TableEntry& entry, std::uint64_t* key) const;
  /// The tenant a write of `entry` is scoped to: its exact tenant
  /// field's value, or nullopt (all tenants) when the field is
  /// wildcarded, out of the 16-bit range, or absent from the key.
  std::optional<std::uint16_t> WriteScope(const TableEntry& entry) const;
  /// Adds entries_[index] to the index and the per-tenant lists
  /// (incremental insert).
  void IndexEntryLocked(std::size_t index);
  /// Removes the entries at `removed` (ascending indices): unlinks them
  /// from their buckets and tenant lists, compacts entries_, shifts the
  /// surviving indices down and bumps the epochs of the tenants whose
  /// entries went. The index is never rebuilt.
  void RemoveIndicesLocked(const std::vector<std::size_t>& removed);
  /// Sum of LPM prefix lengths of `entry` restricted to fields that
  /// match — the tie-break score of the documented semantics.
  int PrefixScore(const TableEntry& entry) const;

  std::string name_;
  std::vector<MatchFieldSpec> key_;
  /// Indices into key_ of the exact-kind fields (the index key).
  std::vector<std::size_t> exact_fields_;
  /// Indices into key_ of the remaining (ternary/LPM/range) fields.
  std::vector<std::size_t> nonexact_fields_;
  std::size_t tenant_field_ = kNoKeyField;
  std::size_t pass_field_ = kNoKeyField;
  std::vector<std::string> action_names_;
  std::vector<ActionFn> actions_;
  std::optional<std::pair<ActionId, ActionArgs>> default_action_;
  /// Guards entries_, index_ (and default_action_/actions_
  /// registration): packet lookups take it shared, so batch workers
  /// proceed in parallel; entry add/remove (tenant admission and
  /// departure) takes it exclusive.
  mutable std::shared_mutex entries_mutex_;
  std::vector<TableEntry> entries_;
  std::unordered_map<std::vector<std::uint64_t>, Bucket, ExactKeyHash, ExactKeyEqual>
      index_;
  /// Entries that wildcard at least one exact-kind key field
  /// (FieldMatch::Any(), mask == 0) cannot live in the value-hashed
  /// index: they must match *every* probe value for that field. They
  /// sit in this side tier, sorted by (priority desc, handle asc), and
  /// are scanned after the bucket with full-key verification. The tier
  /// is expected to stay tiny — the data plane only puts per-(tenant,
  /// pass) recirculation catch-alls here — and because such entries
  /// carry deeply negative priority, the priority-sorted early break
  /// makes the scan O(1) whenever any real rule matched.
  std::vector<std::size_t> wildcard_spill_;
  /// Indices of the entries whose exact tenant field names a tenant
  /// (WriteScope), per tenant, ascending (install order): the source
  /// of SliceTenant.
  std::unordered_map<std::uint16_t, std::vector<std::size_t>> by_tenant_;
  EntryHandle next_handle_ = 1;
  common::metrics::RelaxedCounter hits_;
  common::metrics::RelaxedCounter misses_;
  common::metrics::RelaxedCounter default_hits_;
  common::metrics::RelaxedCounter epoch_;
  MutationStamps* stamps_ = nullptr;

  /// Single bump site: the table's own epoch plus, inside a pipeline,
  /// the stamps of the tenant the mutation is scoped to (nullopt = all
  /// tenants).
  void BumpEpoch(std::optional<std::uint16_t> tenant) {
    epoch_.Add(1);
    if (stamps_ != nullptr) stamps_->Bump(tenant);
  }
};

}  // namespace sfp::switchsim
