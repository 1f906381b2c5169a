// Open-addressing hash map keyed by dns::Name.
//
// Probes reuse the canonical-form hash memoized on the Name at construction
// (Name::hash()), so a lookup is one mask, a linear scan over a contiguous
// control-byte array, and hash-first key rejection — no re-hashing, no node
// chasing, no key copies. This is the resolver cache's hot path container:
// NSEC-heavy negative caching does millions of probes per simulated top-1M
// run.
//
// Slot layout is SoA (DESIGN.md §4k): a dense byte array of control bytes
// (empty/tombstone sentinels, or 0x80 | a 7-bit fragment of the key's hash)
// is probed first, and the wide Slot payload (Name + Value) is only touched
// when the fragment matches. A probe chain therefore walks one cache line of
// metadata per ~64 slots instead of one line per slot, and mismatched keys
// are rejected without ever loading their Name.
//
// Beside the control bytes sits a dense array of per-slot due times: a
// lower bound on the earliest expiry stored under the slot's key. A sweep
// that only needs slots due by some time reads it with one sequential load
// and passes every other full slot without touching its key or value. A
// new slot starts due at 0, writers lower the due time when they store an
// earlier expiry, and the sweep's callback raises it again after a visit.
// A table of 32 slots or more also keeps one bound per aligned block of 32
// slots: at most the due time of every full slot in the block. A sweep
// passes a whole block whose bound is later than its horizon with one load.
//
// Linear probing over a power-of-two slot array with tombstone deletion.
// Rehash keeps the live load factor below 3/4 (tombstones count toward the
// trigger so heavily-churned tables compact instead of degrading).
//
// Pointer contract: pointers to mapped values are invalidated by any insert
// (rehash moves slots). Callers that hand out long-lived interior pointers
// must add their own indirection — see ResolverCache, which boxes positive
// entries in unique_ptr to keep std::map-era pointer stability.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dns/name.h"

namespace lookaside::dns {

/// Resume state for NameHashMap::sweep(): a slot position plus the table
/// generation it was taken under. Rehashes (grow, tombstone compaction,
/// clear) bump the generation; a cursor from an older generation indexes
/// the *previous* slot ordering, so sweep() detects the mismatch and
/// re-anchors the cursor into the current table (masked to the new slot
/// range) instead of silently aliasing a stale index. The hand keeps its
/// numeric phase rather than rewinding to slot 0: second-chance clocks
/// depend on the hand's position for their eviction schedule, and the
/// cap-sweep Case-2 series (DESIGN §4f, pinned by cache_lifecycle tests)
/// is an observable of that schedule — a rewind-to-zero policy restarts
/// every scan at the low slots after each growth and measurably shifts
/// which entries are reclaimed. Entries the rehash moved across the hand
/// are picked up on the next lap, which clock algorithms tolerate by
/// design; within one generation a lap visits every slot exactly once
/// (the model-trace test in name_map intern suite pins both properties).
/// Namespace-level (not nested) so one cursor array can serve maps of
/// different mapped types — see ResolverCache's per-section cursors.
struct NameMapSweepCursor {
  std::size_t slot = 0;
  std::uint64_t generation = 0;
};

/// NameHashMap::sweep's `due_by` that visits every full slot, whatever its
/// due time (clock eviction).
inline constexpr std::uint64_t kSweepAll = ~std::uint64_t{0};

template <typename Value>
class NameHashMap {
 public:
  using SweepCursor = NameMapSweepCursor;

  /// Mapped value for `key`, or nullptr. Never allocates.
  [[nodiscard]] Value* find(const Name& key) {
    if (size_ == 0) return nullptr;
    const std::size_t hash = key.hash();
    const std::uint8_t want = ctrl_of(hash);
    std::size_t i = hash & mask();
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == kCtrlEmpty) return nullptr;
      if (c == want) {
        Slot& slot = slots_[i];
        if (keys_equal(slot, key)) return &slot.value;
      }
      i = (i + 1) & mask();
    }
  }
  [[nodiscard]] const Value* find(const Name& key) const {
    return const_cast<NameHashMap*>(this)->find(key);
  }

  /// Mapped value for `key`, default-constructed and inserted when absent.
  /// Lowers the slot's due time to `due`; a new slot starts due at 0, so
  /// the next sweep lap visits it. Callers that do not sweep, or whose
  /// sweep must visit the slot on every lap, leave `due` at 0.
  Value& get_or_insert(const Name& key, std::uint64_t due = 0) {
    if ((size_ + dead_ + 1) * 4 >= slots_.size() * 3) grow();
    const std::size_t hash = key.hash();
    const std::uint8_t want = ctrl_of(hash);
    std::size_t i = hash & mask();
    std::size_t reuse = kNoSlot;
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == want && keys_equal(slots_[i], key)) {
        if (due < due_[i]) set_due(i, due);
        return slots_[i].value;
      }
      if (c == kCtrlDead && reuse == kNoSlot) reuse = i;
      if (c == kCtrlEmpty) {
        const std::size_t target = reuse == kNoSlot ? i : reuse;
        if (ctrl_[target] == kCtrlDead) --dead_;
        Slot& slot = slots_[target];
        slot.key = key;
        slot.value = Value{};
        ctrl_[target] = want;
        set_due(target, 0);
        ++size_;
        return slot.value;
      }
      i = (i + 1) & mask();
    }
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const Name& key) {
    if (size_ == 0) return false;
    const std::size_t hash = key.hash();
    const std::uint8_t want = ctrl_of(hash);
    std::size_t i = hash & mask();
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == kCtrlEmpty) return false;
      if (c == want && keys_equal(slots_[i], key)) {
        slots_[i].key = Name{};
        slots_[i].value = Value{};
        ctrl_[i] = kCtrlDead;
        --size_;
        ++dead_;
        return true;
      }
      i = (i + 1) & mask();
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    ctrl_.clear();
    due_.clear();
    block_due_.clear();
    size_ = 0;
    dead_ = 0;
    ++generation_;
  }

  /// Unordered visitation: fn(const Name&, Value&). Do not mutate the map
  /// inside fn.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (is_full(ctrl_[i])) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Number of physical slots (power of two; 0 before first insert). The
  /// sweep cursor space: cursors index slots, not entries.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Rehash epoch: bumped by every slot-reordering event (grow, tombstone
  /// compaction, clear). SweepCursor snapshots it; tests assert against it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Incremental slot walk for sweepers and clock-eviction hands: walks
  /// `max_steps` consecutive slots starting at `cursor->slot` (wrapping),
  /// calling fn(key, value, due) on each full slot whose due time is at or
  /// before `due_by`; kSweepAll visits every full slot. `due` is the slot's
  /// due time: fn may raise it to the earliest expiry it leaves in the
  /// slot. Returning true erases that entry in place (tombstone, no
  /// rehash). The cursor advances past every walked slot, visited or not,
  /// so repeated calls cover the whole table. A whole aligned block of 32
  /// slots whose bound is later than `due_by` is passed with one load, and
  /// a block walked whole gets its bound recomputed from the due times the
  /// walk leaves; either way the visits and the cursor are the slot
  /// walk's. A cursor whose snapshotted generation predates a rehash
  /// indexed the *old* slot ordering — sweep() re-anchors it into the
  /// current table (masked, phase preserved; see NameMapSweepCursor for
  /// why not slot 0) so the walk is always a defined position in the live
  /// ordering, and within one generation never skips or double-visits an
  /// entry per lap. Returns the number of entries erased. fn must not
  /// touch the map.
  template <typename Fn>
  std::size_t sweep(SweepCursor* cursor, std::size_t max_steps,
                    std::uint64_t due_by, Fn&& fn) {
    if (slots_.empty() || max_steps == 0) return 0;
    if (cursor->generation != generation_) {
      cursor->slot &= mask();
      cursor->generation = generation_;
    }
    std::size_t erased = 0;
    std::size_t i = cursor->slot & mask();
    // Visits slot `at` when it is full and due; true when fn erased it.
    const auto visit = [&](std::size_t at) {
      if (!is_full(ctrl_[at]) || due_[at] > due_by) return false;
      Slot& slot = slots_[at];
      if (!fn(slot.key, slot.value, due_[at])) return false;
      slot.key = Name{};
      slot.value = Value{};
      ctrl_[at] = kCtrlDead;
      --size_;
      ++dead_;
      ++erased;
      return true;
    };
    while (max_steps > 0) {
      if (max_steps < kBlockSlots || i % kBlockSlots != 0 ||
          block_due_.empty()) {
        visit(i);
        i = (i + 1) & mask();
        --max_steps;
        continue;
      }
      std::uint64_t& bound = block_due_[i / kBlockSlots];
      const std::size_t end = i + kBlockSlots;
      if (bound <= due_by) {
        std::uint64_t low = kSweepAll;
        for (; i < end; ++i) {
          if (!visit(i) && is_full(ctrl_[i])) low = std::min(low, due_[i]);
        }
        bound = low;
      }
      i = end & mask();
      max_steps -= kBlockSlots;
    }
    cursor->slot = i;
    return erased;
  }

 private:
  // Control bytes: one per slot. kCtrlEmpty / kCtrlDead are sentinels; a
  // full slot stores 0x80 | the top 7 bits of the key's hash. The slot
  // index comes from the hash's *low* bits, so the fragment is nearly
  // independent of the probe position and rejects ~127/128 of mismatched
  // keys without touching the Slot array.
  static constexpr std::uint8_t kCtrlEmpty = 0;
  static constexpr std::uint8_t kCtrlDead = 1;
  [[nodiscard]] static std::uint8_t ctrl_of(std::size_t hash) {
    return static_cast<std::uint8_t>(0x80u | (hash >> 57));
  }
  [[nodiscard]] static bool is_full(std::uint8_t c) {
    return (c & 0x80u) != 0;
  }

  struct Slot {
    Name key;
    Value value{};
  };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInitialCapacity = 16;
  // Slots per due-time block; a table smaller than one block keeps none.
  static constexpr std::size_t kBlockSlots = 32;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  [[nodiscard]] static bool keys_equal(const Slot& slot, const Name& key) {
    // Hash-first rejection: the memoized hashes differ for almost every
    // unequal pair that survives the control-byte fragment, so the byte
    // compare rarely runs on mismatches.
    return slot.key.hash() == key.hash() && slot.key == key;
  }

  /// Sets slot i's due time, lowering its block's bound to match. Callers
  /// only lower a due time or place a slot; sweep() raises them itself.
  void set_due(std::size_t i, std::uint64_t due) {
    due_[i] = due;
    if (block_due_.empty()) return;
    std::uint64_t& bound = block_due_[i / kBlockSlots];
    if (due < bound) bound = due;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::uint64_t> old_due = std::move(due_);
    // Double only when live entries need it; a tombstone-heavy table
    // rehashes at the same capacity, which drops the tombstones.
    std::size_t capacity = old.empty() ? kInitialCapacity : old.size();
    while ((size_ + 1) * 4 >= capacity * 3) capacity *= 2;
    // resize (not assign): value-initializing fresh slots keeps Value
    // move-only friendly (the positive cache maps to unique_ptr slots).
    slots_.clear();
    slots_.resize(capacity);
    ctrl_.assign(capacity, kCtrlEmpty);
    due_.assign(capacity, 0);
    block_due_.assign(capacity / kBlockSlots, kSweepAll);
    size_ = 0;
    dead_ = 0;
    ++generation_;
    for (std::size_t s = 0; s < old.size(); ++s) {
      if (!is_full(old_ctrl[s])) continue;
      Slot& slot = old[s];
      const std::size_t hash = slot.key.hash();
      std::size_t i = hash & mask();
      while (ctrl_[i] != kCtrlEmpty) i = (i + 1) & mask();
      slots_[i].key = std::move(slot.key);
      slots_[i].value = std::move(slot.value);
      ctrl_[i] = ctrl_of(hash);
      set_due(i, old_due[s]);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> ctrl_;  // SoA control bytes, one per slot
  std::vector<std::uint64_t> due_;  // per-slot due times, beside ctrl_
  // Per-block lower bounds of due_ over the block's full slots; empty
  // while the table is smaller than one block.
  std::vector<std::uint64_t> block_due_;
  std::size_t size_ = 0;
  std::size_t dead_ = 0;       // tombstones
  std::uint64_t generation_ = 1;  // rehash epoch (see SweepCursor)
};

}  // namespace lookaside::dns
