#include "experience/store.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/validate.hpp"

namespace oar::experience {

namespace {

// oar_exp_* family (DESIGN.md §18).  Gauges are refreshed at every
// mutation point — put/flush/compact/clear and disk-tier open — never only
// at scrape time, so they can't go stale the way the pre-PR-10 serve cache
// gauge did.
struct ExpObs {
  obs::Counter& gets;
  obs::Counter& hits_memory;
  obs::Counter& hits_disk;
  obs::Counter& misses;
  obs::Counter& puts;
  obs::Counter& appends;
  obs::Counter& flushes;
  obs::Counter& compactions;
  obs::Counter& warm_lookups;
  obs::Counter& warm_matches;
  obs::Gauge& mem_entries;
  obs::Gauge& disk_records;
  obs::Gauge& file_bytes;
  obs::Gauge& pending_bytes;
  obs::Histogram& record_bytes;
};

ExpObs& exp_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static ExpObs o{
      reg.counter("oar_exp_gets_total", "Experience store lookups"),
      reg.counter("oar_exp_hits_memory_total",
                  "Lookups answered by the memory LRU tier"),
      reg.counter("oar_exp_hits_disk_total",
                  "Lookups answered by the disk tier (promoted to memory)"),
      reg.counter("oar_exp_misses_total", "Lookups that missed every tier"),
      reg.counter("oar_exp_puts_total", "Records stored (any tier)"),
      reg.counter("oar_exp_appends_total",
                  "Records appended to the disk tier"),
      reg.counter("oar_exp_flushes_total", "Disk-tier flushes"),
      reg.counter("oar_exp_compactions_total", "Disk-tier compactions"),
      reg.counter("oar_exp_warm_lookups_total",
                  "Warm-start base-key lookups"),
      reg.counter("oar_exp_warm_matches_total",
                  "Warm-start candidates returned across all lookups"),
      reg.gauge("oar_exp_mem_entries",
                "Entries resident in the memory LRU tier"),
      reg.gauge("oar_exp_disk_records",
                "Live records indexed in the disk tier"),
      reg.gauge("oar_exp_file_bytes", "Experience file size on disk"),
      reg.gauge("oar_exp_pending_bytes",
                "Appended bytes buffered but not yet flushed"),
      reg.histogram("oar_exp_record_bytes", obs::pow2_buckets(24),
                    "Serialized record payload size"),
  };
  return o;
}

}  // namespace

const char* hit_tier_name(HitTier tier) {
  switch (tier) {
    case HitTier::kMiss:
      return "miss";
    case HitTier::kMemory:
      return "memory";
    case HitTier::kDisk:
      return "disk";
  }
  return "unknown";
}

void StoreConfig::validate() const {
  util::check_field(!read_only || !path.empty(), "StoreConfig", "read_only",
                    "be false when no disk path is configured",
                    int(read_only));
}

Store::Store(StoreConfig config) : config_(std::move(config)) {
  config_.validate();
  if (!config_.path.empty()) {
    disk_ = std::make_unique<FileStore>(config_.path, config_.read_only);
  }
  refresh_gauges();
}

Store::~Store() {
  try {
    flush();
  } catch (...) {
    // Best effort; FileStore's destructor retries.
  }
}

std::optional<ExperienceRecord> Store::get(const CanonicalKey& key,
                                           HitTier* tier) {
  if (tier != nullptr) *tier = HitTier::kMiss;
  exp_obs().gets.inc();
  if (key.empty()) {
    exp_obs().misses.inc();
    return std::nullopt;
  }

  // Memory tier.
  {
    std::scoped_lock lock(mem_mu_);
    const auto it = mem_index_.find(key);
    if (it != mem_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (tier != nullptr) *tier = HitTier::kMemory;
      exp_obs().hits_memory.inc();
      return it->second->second;
    }
  }

  // Disk tier, promoting hits into memory.
  if (disk_ != nullptr) {
    ExperienceRecord rec;
    if (disk_->get(key, rec)) {
      if (config_.memory_capacity > 0) {
        std::scoped_lock lock(mem_mu_);
        const auto it = mem_index_.find(key);
        if (it == mem_index_.end()) {
          lru_.emplace_front(key, rec);
          mem_index_.emplace(key, lru_.begin());
          while (lru_.size() > config_.memory_capacity) {
            mem_index_.erase(lru_.back().first);
            lru_.pop_back();
          }
        }
      }
      if (tier != nullptr) *tier = HitTier::kDisk;
      exp_obs().hits_disk.inc();
      refresh_gauges();
      return rec;
    }
  }

  exp_obs().misses.inc();
  return std::nullopt;
}

void Store::put(const CanonicalKey& key, ExperienceRecord record) {
  if (key.empty()) return;
  exp_obs().puts.inc();
  bool want_flush = false;
  if (disk_ != nullptr && !config_.read_only) {
    exp_obs().record_bytes.observe(double(disk_->put(key, record)));
    exp_obs().appends.inc();
    std::scoped_lock lock(flush_mu_);
    ++puts_since_flush_;
    if (config_.flush_batch > 0 && puts_since_flush_ >= config_.flush_batch) {
      puts_since_flush_ = 0;
      want_flush = true;
    }
  }
  if (config_.memory_capacity > 0) {
    std::scoped_lock lock(mem_mu_);
    const auto it = mem_index_.find(key);
    if (it != mem_index_.end()) {
      it->second->second = std::move(record);
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.emplace_front(key, std::move(record));
      mem_index_.emplace(key, lru_.begin());
      while (lru_.size() > config_.memory_capacity) {
        mem_index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  if (want_flush) {
    flush();
  } else {
    refresh_gauges();
  }
}

void Store::put(KeyedRecord keyed) {
  put(keyed.key, std::move(keyed.record));
}

std::vector<ExperienceRecord> Store::match_base(
    std::string_view base_key) const {
  exp_obs().warm_lookups.inc();
  if (disk_ == nullptr || base_key.empty()) return {};
  std::vector<ExperienceRecord> out =
      disk_->match_base(base_key, config_.max_base_matches);
  exp_obs().warm_matches.add(double(out.size()));
  return out;
}

void Store::flush() {
  if (disk_ != nullptr && !config_.read_only) {
    disk_->flush();
    exp_obs().flushes.inc();
  }
  refresh_gauges();
}

void Store::compact() {
  if (disk_ != nullptr && !config_.read_only) {
    disk_->compact();
    exp_obs().compactions.inc();
  }
  refresh_gauges();
}

void Store::clear_memory() {
  {
    std::scoped_lock lock(mem_mu_);
    lru_.clear();
    mem_index_.clear();
  }
  refresh_gauges();
}

std::size_t Store::memory_entries() const {
  std::scoped_lock lock(mem_mu_);
  return lru_.size();
}

std::size_t Store::disk_records() const {
  return disk_ != nullptr ? disk_->size() : 0;
}

StoreStats Store::stats() const {
  StoreStats out;
  out.memory_entries = memory_entries();
  if (disk_ != nullptr) out.disk = disk_->stats();
  return out;
}

void Store::refresh_gauges() const {
  ExpObs& o = exp_obs();
  o.mem_entries.set(double(memory_entries()));
  if (disk_ != nullptr) {
    const FileStoreStats ds = disk_->stats();
    o.disk_records.set(double(ds.records));
    o.file_bytes.set(double(ds.file_bytes));
    o.pending_bytes.set(double(ds.pending_bytes));
  }
}

}  // namespace oar::experience
