#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netflow/packet.hpp"

/// Flow demultiplexing for interleaved multi-session packet streams.
///
/// A monitoring point at an access node sees one interleaved stream of UDP
/// datagrams from thousands of concurrent VCA sessions. The `FlowTable`
/// assigns each distinct 5-tuple a dense `FlowId` in first-seen order, so
/// downstream sharding and result merging are deterministic functions of the
/// input stream (never of thread timing or hash-table iteration order).
///
/// Ids are generational: `erase` forgets the key→id mapping but the id is
/// never reused — a flow that returns after eviction is interned under a
/// fresh id. Sidecar state keyed by `FlowId` (shard estimators, per-flow
/// stats) therefore can never alias a live flow with a dead one, and
/// id-indexed vectors only ever grow.
namespace vcaqoe::engine {

/// Dense per-table flow index, assigned in first-seen order starting at 0.
using FlowId = std::uint32_t;

/// 5-tuple hash shared with the capture-side flow maps.
using FlowKeyHash = netflow::FlowKeyHash;

class FlowTable {
 public:
  /// The hash map runs at half the default load factor: the per-packet
  /// demux lookup is the dispatcher's hottest probe, and shorter chains
  /// buy more than the extra bucket memory costs at engine scale.
  FlowTable() { ids_.max_load_factor(0.5F); }

  /// Returns the id of `key`, assigning the next dense id on first sight
  /// (or on first sight after an erase — evicted generations stay retired).
  FlowId intern(const netflow::FlowKey& key);

  /// Returns the *live* id of `key`, or nullopt if never seen or erased.
  std::optional<FlowId> find(const netflow::FlowKey& key) const;

  /// The 5-tuple that was interned as `id` (id must be < size()). Valid for
  /// erased ids too — stats exported after eviction still need the key.
  const netflow::FlowKey& keyOf(FlowId id) const { return keys_[id]; }

  /// Total flows ever interned == one past the highest id handed out.
  /// Includes erased generations, so id-indexed sidecars never shrink.
  std::size_t size() const { return keys_.size(); }

  /// Flows currently resident (interned and not erased).
  std::size_t activeSize() const { return ids_.size(); }

  bool empty() const { return keys_.empty(); }

  /// Retires `id`: the key→id mapping is dropped so the key re-interns under
  /// a fresh id. No-op when `id` was already erased or superseded by a newer
  /// generation of the same key.
  void erase(FlowId id);

 private:
  std::unordered_map<netflow::FlowKey, FlowId, FlowKeyHash> ids_;
  std::vector<netflow::FlowKey> keys_;
};

/// Direct-mapped last-flow cache in front of `FlowTable::intern`.
///
/// Interleaved capture streams are bursty per flow — a video sender emits
/// packet trains, so consecutive packets usually repeat one of a handful of
/// recent 5-tuples. A tiny direct-mapped array (slot = key hash mod
/// `kSlots`) turns that burstiness into an O(1) compare instead of an
/// unordered_map probe. Strictly a dispatcher-side accelerator: on a miss
/// the caller falls back to `intern` and refills the slot; `forget` must be
/// called when an id is erased (eviction) so a retired generation can never
/// be served. Single-threaded by design, like the dispatcher itself.
class FlowDemuxCache {
 public:
  static constexpr std::size_t kSlots = 64;  // power of two (mask indexing)

  /// The cached live id of `key`, or nullopt on miss/collision.
  std::optional<FlowId> lookup(const netflow::FlowKey& key) {
    ++lookups_;
    const Entry& entry = slots_[slotOf(key)];
    if (entry.valid && entry.key == key) {
      ++hits_;
      return entry.id;
    }
    return std::nullopt;
  }

  /// Installs `key` → `id`, displacing whatever shared the slot.
  void remember(const netflow::FlowKey& key, FlowId id) {
    slots_[slotOf(key)] = Entry{key, id, true};
  }

  /// Invalidates `key`'s slot (no-op if a colliding key displaced it).
  void forget(const netflow::FlowKey& key) {
    Entry& entry = slots_[slotOf(key)];
    if (entry.valid && entry.key == key) entry.valid = false;
  }

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }

 private:
  struct Entry {
    netflow::FlowKey key;
    FlowId id = 0;
    bool valid = false;
  };

  static std::size_t slotOf(const netflow::FlowKey& key) {
    return FlowKeyHash{}(key) & (kSlots - 1);
  }

  std::array<Entry, kSlots> slots_{};
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace vcaqoe::engine
