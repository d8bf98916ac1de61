#pragma once

// Tiered experience store: a bounded in-memory LRU tier in front of the
// append-only disk tier (file_store.hpp).  This is the one caching API the
// rest of the system talks to — the serving path's exact hits, the MCTS
// warm start's near-miss lookups, and the trainer's episode appends all go
// through a Store.
//
// Tier semantics:
//   get  — memory first (kMemory), then disk with promotion into memory
//          (kDisk), else kMiss.  Hit provenance is returned to the caller
//          and surfaced as oar_exp_* counters.
//   put  — inserts into memory and, when a disk tier is configured and the
//          store is not read-only, buffers an append; every flush_batch
//          puts the buffer is flushed (batched single-writer appends).
//
// A Store with an empty path is a pure memory cache.
//
// Thread safety: all methods are safe to call concurrently; the memory
// tier has its own mutex and FileStore locks internally.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "experience/file_store.hpp"
#include "experience/key.hpp"
#include "experience/record.hpp"

namespace oar::experience {

/// Which tier answered a get().
enum class HitTier : int { kMiss = 0, kMemory = 1, kDisk = 2 };

const char* hit_tier_name(HitTier tier);

struct StoreConfig {
  /// Memory-tier capacity in entries; 0 disables the memory tier.
  std::size_t memory_capacity = 256;
  /// Disk-tier file path; empty disables the disk tier.
  std::string path;
  /// Open the disk tier read-only: get()/match_base() serve from it but
  /// put() feeds only the memory tier.
  bool read_only = false;
  /// Flush the disk tier after this many put()s; 0 defers to explicit
  /// flush() / destruction.
  std::size_t flush_batch = 16;
  /// Near-miss candidates returned per warm-start base lookup.
  std::size_t max_base_matches = 8;

  void validate() const;
};

/// What the tiers hold.  Lookup and put counts are the oar_exp_* counters
/// of the obs::MetricsRegistry, not fields here.
struct StoreStats {
  std::uint64_t memory_entries = 0;
  FileStoreStats disk;  ///< zeroed when no disk tier
};

class Store {
 public:
  /// Opens the configured tiers.  Propagates FileStore's exceptions for an
  /// unreadable or wrong-format disk file (fail-closed, never clobber).
  explicit Store(StoreConfig config = {});
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Tiered lookup; `tier` (optional) reports provenance, also on miss.
  std::optional<ExperienceRecord> get(const CanonicalKey& key,
                                      HitTier* tier = nullptr);

  void put(const CanonicalKey& key, ExperienceRecord record);
  void put(KeyedRecord keyed);

  /// Disk-tier records sharing a warm-start base key (newest first, up to
  /// max_base_matches).  Memory-tier entries are reachable by exact key
  /// only; near-miss mining is a disk-tier feature.
  std::vector<ExperienceRecord> match_base(std::string_view base_key) const;

  void flush();
  void compact();
  void clear_memory();

  std::size_t memory_entries() const;
  std::size_t disk_records() const;
  bool has_disk_tier() const { return disk_ != nullptr; }
  StoreStats stats() const;
  const StoreConfig& config() const { return config_; }

 private:
  void refresh_gauges() const;

  const StoreConfig config_;
  std::unique_ptr<FileStore> disk_;  // null when no disk tier

  // Memory tier: LRU over canonical keys, typed and provenance-aware.
  using MemEntry = std::pair<CanonicalKey, ExperienceRecord>;
  mutable std::mutex mem_mu_;
  std::list<MemEntry> lru_;  // front = most recently used
  std::unordered_map<CanonicalKey, std::list<MemEntry>::iterator, KeyHash>
      mem_index_;

  std::mutex flush_mu_;
  std::size_t puts_since_flush_ = 0;  // disk appends since the last batch flush
};

}  // namespace oar::experience
