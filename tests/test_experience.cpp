#include "experience/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "experience/file_store.hpp"
#include "experience/record.hpp"
#include "experience/warm_start.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "obs/metrics.hpp"
#include "rl/augment.hpp"
#include "rl/selector.hpp"
#include "route/oarmst.hpp"
#include "serve/service.hpp"

namespace oar::experience {
namespace {

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

HananGrid small_grid(std::uint64_t seed = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = 6;
  spec.v = 6;
  spec.m = 2;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 3;
  spec.max_obstacles = 3;
  return gen::random_grid(spec, rng);
}

std::string temp_path(const std::string& name) {
  std::string p = ::testing::TempDir() + "oar_" + name;
  std::remove(p.c_str());
  std::remove((p + ".tmp").c_str());
  return p;
}

/// Routes `grid` and packages the episode the way the serving path and the
/// trainer do: tree + fsp summary + best combination.  The "best"
/// combination is the first free vertex — an arbitrary but valid Steiner
/// choice, enough for the exact-match machinery to have a floor to replay.
KeyedRecord routed_record(const HananGrid& grid) {
  std::vector<Vertex> best;
  for (Vertex v = 0; v < grid.num_vertices() && best.empty(); ++v) {
    if (!grid.is_blocked(v) && !grid.is_pin(v)) best.push_back(v);
  }
  route::OarmstRouter router(grid);
  route::OarmstResult res = router.build(grid.pins(), best);
  EXPECT_TRUE(res.connected);
  std::vector<float> fsp(std::size_t(grid.num_vertices()), 0.0f);
  for (Vertex v : best) fsp[std::size_t(grid.priority_of(v))] = 1.0f;
  return build_record(grid, res, fsp, best);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(ExperienceRecord, SerializeRoundTripsWarmPayload) {
  const HananGrid grid = small_grid();
  const KeyedRecord keyed = routed_record(grid);
  ASSERT_TRUE(keyed.record.has_warm_start());

  const std::string bytes = serialize_record(keyed.record);
  ExperienceRecord back;
  ASSERT_TRUE(deserialize_record(bytes.data(), bytes.size(), back));

  EXPECT_EQ(back.edges.size(), keyed.record.edges.size());
  for (std::size_t i = 0; i < back.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i].a, keyed.record.edges[i].a);
    EXPECT_EQ(back.edges[i].b, keyed.record.edges[i].b);
  }
  EXPECT_EQ(back.steiner, keyed.record.steiner);
  EXPECT_EQ(back.cost, keyed.record.cost);
  EXPECT_EQ(back.connected, keyed.record.connected);
  EXPECT_EQ(back.base_key, keyed.record.base_key);
  EXPECT_EQ(back.pins_base, keyed.record.pins_base);
  EXPECT_EQ(back.best_base, keyed.record.best_base);
  EXPECT_EQ(back.fsp_base, keyed.record.fsp_base);
}

TEST(ExperienceRecord, DeserializeFailsClosedOnMalformedBytes) {
  const std::string bytes = serialize_record(routed_record(small_grid()).record);
  ExperienceRecord out;
  // Every strict prefix is rejected — no partial parse ever succeeds.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(deserialize_record(bytes.data(), n, out)) << "prefix " << n;
  }
  // Trailing garbage is rejected too (a frame length lie must not pass).
  const std::string longer = bytes + 'x';
  EXPECT_FALSE(deserialize_record(longer.data(), longer.size(), out));
}

TEST(ExperienceFile, RoundTripSurvivesReopen) {
  const std::string path = temp_path("roundtrip.oarexp");
  const HananGrid grid = small_grid();
  const KeyedRecord keyed = routed_record(grid);
  {
    FileStore fs(path);
    fs.put(keyed.key, keyed.record);
    fs.flush();
    EXPECT_EQ(fs.stats().appended, 1u);
  }
  FileStore reopened(path);
  EXPECT_EQ(reopened.stats().recovered, 1u);
  EXPECT_EQ(reopened.stats().tail_lost_bytes, 0u);
  ExperienceRecord back;
  ASSERT_TRUE(reopened.get(keyed.key, back));
  EXPECT_EQ(back.cost, keyed.record.cost);
  EXPECT_EQ(back.steiner, keyed.record.steiner);
  std::remove(path.c_str());
}

TEST(ExperienceFile, TornTailIsDroppedAndWritableAgain) {
  const std::string path = temp_path("torn.oarexp");
  const KeyedRecord a = routed_record(small_grid(4));
  const KeyedRecord b = routed_record(small_grid(5));
  {
    FileStore fs(path);
    fs.put(a.key, a.record);
    fs.flush();
  }
  // Simulate a kill mid-append: half a frame of garbage at the tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("EXPRgarbage-that-is-not-a-frame", 31);
  }
  {
    FileStore fs(path);  // writable open truncates the torn tail
    EXPECT_EQ(fs.stats().recovered, 1u);
    EXPECT_GT(fs.stats().tail_lost_bytes, 0u);
    ExperienceRecord back;
    EXPECT_TRUE(fs.get(a.key, back));
    fs.put(b.key, b.record);
    fs.flush();
  }
  // Appends made after the tear are reachable by the next open.
  FileStore reopened(path);
  EXPECT_EQ(reopened.stats().recovered, 2u);
  ExperienceRecord back;
  EXPECT_TRUE(reopened.get(a.key, back));
  EXPECT_TRUE(reopened.get(b.key, back));
  std::remove(path.c_str());
}

TEST(ExperienceFile, BitFlipFailsClosedFromTheFlipOn) {
  const std::string path = temp_path("bitflip.oarexp");
  const KeyedRecord a = routed_record(small_grid(4));
  const KeyedRecord b = routed_record(small_grid(5));
  {
    FileStore fs(path);
    fs.put(a.key, a.record);
    fs.put(b.key, b.record);
    fs.flush();
  }
  std::string bytes = read_file(path);
  // Flip one byte inside the FIRST frame's payload (just past the header
  // and frame head): the checksum must reject it, and the scan stops there
  // — b's frame after the corruption is unreachable, never misparsed.
  bytes[40] = char(bytes[40] ^ 0x40);
  write_file(path, bytes);

  FileStore fs(path, /*read_only=*/true);
  EXPECT_EQ(fs.stats().recovered, 0u);
  EXPECT_GT(fs.stats().tail_lost_bytes, 0u);
  ExperienceRecord back;
  EXPECT_FALSE(fs.get(a.key, back));
  EXPECT_FALSE(fs.get(b.key, back));
  std::remove(path.c_str());
}

TEST(ExperienceFile, WrongMagicOrTruncatedHeaderThrows) {
  const std::string path = temp_path("notanexp.oarexp");
  write_file(path, "definitely not an experience file");
  EXPECT_THROW(FileStore fs(path), std::runtime_error);
  write_file(path, "OAREXP1\n");  // magic alone, header truncated
  EXPECT_THROW(FileStore fs(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ExperienceFile, CompactDropsSupersededFramesAndKeepsNewest) {
  const std::string path = temp_path("compact.oarexp");
  const HananGrid grid = small_grid();
  KeyedRecord keyed = routed_record(grid);
  FileStore fs(path);
  fs.put(keyed.key, keyed.record);
  keyed.record.cost += 1.0;  // append-merge update under the same key
  fs.put(keyed.key, keyed.record);
  fs.flush();
  const std::uint64_t before = fs.stats().file_bytes;
  EXPECT_GT(fs.stats().dead_bytes, 0u);

  fs.compact();
  EXPECT_LT(fs.stats().file_bytes, before);
  EXPECT_EQ(fs.stats().dead_bytes, 0u);
  EXPECT_EQ(fs.size(), 1u);
  ExperienceRecord back;
  ASSERT_TRUE(fs.get(keyed.key, back));
  EXPECT_EQ(back.cost, keyed.record.cost);  // newest frame won
  std::remove(path.c_str());
}

TEST(ExperienceStore, TierProvenanceMemoryDiskMiss) {
  const std::string path = temp_path("tiers.oarexp");
  StoreConfig sc;
  sc.memory_capacity = 4;
  sc.path = path;
  sc.flush_batch = 1;
  Store store(sc);
  const KeyedRecord keyed = routed_record(small_grid());
  const std::uint64_t misses = counter_value("oar_exp_misses_total");
  const std::uint64_t disk_hits = counter_value("oar_exp_hits_disk_total");
  const std::uint64_t memory_hits = counter_value("oar_exp_hits_memory_total");

  HitTier tier = HitTier::kMemory;
  EXPECT_FALSE(store.get(keyed.key, &tier).has_value());
  EXPECT_EQ(tier, HitTier::kMiss);

  store.put(keyed.key, keyed.record);
  EXPECT_TRUE(store.get(keyed.key, &tier).has_value());
  EXPECT_EQ(tier, HitTier::kMemory);

  // Evict the memory tier: the next hit must come from disk, then be
  // promoted so the one after is a memory hit again.
  store.clear_memory();
  EXPECT_TRUE(store.get(keyed.key, &tier).has_value());
  EXPECT_EQ(tier, HitTier::kDisk);
  EXPECT_TRUE(store.get(keyed.key, &tier).has_value());
  EXPECT_EQ(tier, HitTier::kMemory);

  std::remove(path.c_str());

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(counter_value("oar_exp_misses_total") - misses, 1u);
  EXPECT_EQ(counter_value("oar_exp_hits_disk_total") - disk_hits, 1u);
  EXPECT_EQ(counter_value("oar_exp_hits_memory_total") - memory_hits, 2u);
}

TEST(ExperienceStore, RecordBytesHistogramSumsSerializedRecords) {
  // oar_exp_record_bytes observes each disk-tier append's record size,
  // taken from the frame the disk tier builds.
  const std::string path = temp_path("record_bytes.oarexp");
  StoreConfig sc;
  sc.path = path;
  Store store(sc);
  obs::Histogram& bytes_hist = obs::MetricsRegistry::instance().histogram(
      "oar_exp_record_bytes", obs::pow2_buckets(24));
  const std::uint64_t count_before = bytes_hist.count();
  const double sum_before = bytes_hist.sum();

  double want = 0.0;
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    const KeyedRecord keyed = routed_record(small_grid(seed));
    want += double(serialize_record(keyed.record).size());
    store.put(keyed.key, keyed.record);
  }
  EXPECT_EQ(store.stats().disk.appended, 3u);
  std::remove(path.c_str());

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(bytes_hist.count() - count_before, 3u);
  EXPECT_EQ(bytes_hist.sum() - sum_before, want);
}

TEST(ExperienceStore, MemoryOnlyStoreIsAPureLru) {
  StoreConfig sc;
  sc.memory_capacity = 2;
  Store store(sc);
  EXPECT_FALSE(store.has_disk_tier());
  const KeyedRecord a = routed_record(small_grid(4));
  const KeyedRecord b = routed_record(small_grid(5));
  const KeyedRecord c = routed_record(small_grid(6));
  store.put(a.key, a.record);
  store.put(b.key, b.record);
  EXPECT_TRUE(store.get(a.key).has_value());  // refresh a
  store.put(c.key, c.record);                 // evicts b
  EXPECT_TRUE(store.get(a.key).has_value());
  EXPECT_FALSE(store.get(b.key).has_value());
  EXPECT_TRUE(store.get(c.key).has_value());
  EXPECT_EQ(store.memory_entries(), 2u);
}

TEST(ExperienceStore, ReadOnlyStoreServesButNeverAppends) {
  const std::string path = temp_path("readonly.oarexp");
  const KeyedRecord a = routed_record(small_grid(4));
  const KeyedRecord b = routed_record(small_grid(5));
  {
    StoreConfig sc;
    sc.path = path;
    Store writer(sc);
    writer.put(a.key, a.record);
    writer.flush();
  }
  StoreConfig sc;
  sc.path = path;
  sc.read_only = true;
  Store reader(sc);
  HitTier tier = HitTier::kMiss;
  EXPECT_TRUE(reader.get(a.key, &tier).has_value());
  EXPECT_EQ(tier, HitTier::kDisk);
  reader.put(b.key, b.record);  // memory tier only — never hits the file
  EXPECT_EQ(reader.stats().disk.appended, 0u);
  FileStore check(path, /*read_only=*/true);
  EXPECT_EQ(check.size(), 1u);
  std::remove(path.c_str());
}

TEST(ExperienceConcurrentReaders, GetAndMatchBaseRaceAWriter) {
  const std::string path = temp_path("concurrent.oarexp");
  StoreConfig sc;
  sc.memory_capacity = 2;
  sc.path = path;
  sc.flush_batch = 2;
  Store store(sc);

  std::vector<KeyedRecord> keyed;
  for (std::uint64_t s = 0; s < 6; ++s) keyed.push_back(routed_record(small_grid(s + 4)));
  const std::string base = keyed[0].record.base_key;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::size_t hits = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (const KeyedRecord& k : keyed) {
          if (store.get(k.key).has_value()) ++hits;
        }
        hits += store.match_base(base).size();
      }
      (void)hits;
    });
  }
  for (int round = 0; round < 4; ++round) {
    for (const KeyedRecord& k : keyed) store.put(k.key, k.record);
    store.flush();
  }
  store.compact();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  for (const KeyedRecord& k : keyed) EXPECT_TRUE(store.get(k.key).has_value());
  std::remove(path.c_str());
}

TEST(ExperienceWarmStart, ExactMatchYieldsPriorAndBestFloor) {
  const std::string path = temp_path("warm_exact.oarexp");
  StoreConfig sc;
  sc.path = path;
  Store store(sc);
  const HananGrid grid = small_grid();
  store.put(routed_record(grid));

  const WarmStart warm = lookup_warm_start(store, grid);
  ASSERT_FALSE(warm.empty());
  EXPECT_TRUE(warm.exact);
  EXPECT_EQ(warm.matches, 1);
  ASSERT_EQ(warm.prior.size(), std::size_t(grid.num_vertices()));
  // The recorded combination maps back into request space onto routable
  // non-pin vertices.
  for (Vertex v : warm.best) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, grid.num_vertices());
    EXPECT_FALSE(grid.is_blocked(v));
    EXPECT_FALSE(grid.is_pin(v));
  }
  std::remove(path.c_str());
}

TEST(ExperienceWarmStart, SymmetryVariantOfTheEpisodeStillMatches) {
  const std::string path = temp_path("warm_sym.oarexp");
  StoreConfig sc;
  sc.path = path;
  Store store(sc);
  const HananGrid grid = small_grid();
  store.put(routed_record(grid));

  // A rotated/mirrored request shares the pin-stripped base key, so the
  // episode applies there too (mapped through the inverse symmetry).
  const HananGrid variant = rl::transform_grid(grid, rl::all_augmentations()[5]);
  const WarmStart warm = lookup_warm_start(store, variant);
  ASSERT_FALSE(warm.empty());
  EXPECT_TRUE(warm.exact);
  for (Vertex v : warm.best) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, variant.num_vertices());
    EXPECT_FALSE(variant.is_blocked(v));
    EXPECT_FALSE(variant.is_pin(v));
  }
  std::remove(path.c_str());
}

TEST(ExperienceWarmStart, DisabledOrEmptyStoreIsBitwiseCold) {
  const std::string path = temp_path("warm_anchor.oarexp");
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = 48;
  cfg.use_critic = false;

  mcts::CombMcts cold(selector, cfg);
  const mcts::CombMctsResult want = cold.run(grid);

  StoreConfig sc;
  sc.path = path;
  Store store(sc);

  // warm_start=false with a populated store attached: bitwise identical.
  store.put(routed_record(grid));
  mcts::CombMcts off(selector, cfg, &store);
  const mcts::CombMctsResult got_off = off.run(grid);
  EXPECT_EQ(got_off.selected, want.selected);
  EXPECT_EQ(got_off.best_selected, want.best_selected);
  EXPECT_EQ(got_off.best_cost, want.best_cost);
  EXPECT_EQ(got_off.final_cost, want.final_cost);
  EXPECT_EQ(got_off.label, want.label);
  EXPECT_FALSE(got_off.stats.warm_started);

  // warm_start=true against a store with no applicable experience: the
  // lookup comes back empty and the search is still bitwise cold.
  const std::string empty_path = temp_path("warm_anchor_empty.oarexp");
  StoreConfig esc;
  esc.path = empty_path;
  Store empty_store(esc);
  mcts::CombMctsConfig warm_cfg = cfg;
  warm_cfg.warm_start = true;
  mcts::CombMcts on_empty(selector, warm_cfg, &empty_store);
  const mcts::CombMctsResult got_empty = on_empty.run(grid);
  EXPECT_EQ(got_empty.selected, want.selected);
  EXPECT_EQ(got_empty.best_cost, want.best_cost);
  EXPECT_EQ(got_empty.label, want.label);
  EXPECT_FALSE(got_empty.stats.warm_started);

  std::remove(path.c_str());
  std::remove(empty_path.c_str());
}

TEST(ExperienceWarmStart, WarmReplayNeverLosesToCold) {
  const std::string path = temp_path("warm_replay.oarexp");
  rl::SteinerSelector selector(tiny_config());
  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = 48;
  cfg.use_critic = false;

  StoreConfig sc;
  sc.path = path;
  Store store(sc);

  for (std::uint64_t seed = 4; seed < 9; ++seed) {
    const HananGrid grid = small_grid(seed);
    mcts::CombMcts cold(selector, cfg);
    const mcts::CombMctsResult cold_res = cold.run(grid);

    // Record the cold episode, then replay the same layout warm: the
    // exact-match floor guarantees best cost <= cold best cost.
    route::OarmstRouter router(grid);
    route::OarmstResult routed =
        router.build(grid.pins(), cold_res.best_selected);
    ASSERT_TRUE(routed.connected);
    store.put(build_record(grid, routed, cold_res.label,
                           cold_res.best_selected));

    mcts::CombMctsConfig warm_cfg = cfg;
    warm_cfg.warm_start = true;
    mcts::CombMcts warm(selector, warm_cfg, &store);
    const mcts::CombMctsResult warm_res = warm.run(grid);
    EXPECT_TRUE(warm_res.stats.warm_started) << "seed " << seed;
    EXPECT_LE(warm_res.best_cost, cold_res.best_cost) << "seed " << seed;
  }
  std::remove(path.c_str());
}

TEST(ExperienceServe, ExactHitsSurviveServiceRestart) {
  const std::string path = temp_path("serve_restart.oarexp");
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  auto grid = std::make_shared<const HananGrid>(small_grid());

  serve::RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.experience_path = path;
  cfg.experience_flush_batch = 1;

  route::OarmstResult first;
  {
    serve::RouterService service(selector, cfg);
    serve::RouteReply miss = service.route(grid);
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_EQ(miss.hit_tier, HitTier::kMiss);
    ASSERT_TRUE(miss.result.connected);
    first = std::move(miss.result);

    serve::RouteReply hit = service.route(grid);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.hit_tier, HitTier::kMemory);
  }  // service torn down — the "deploy"

  serve::RouterService reborn(selector, cfg);
  serve::RouteReply hit = reborn.route(grid);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.hit_tier, HitTier::kDisk);
  EXPECT_TRUE(hit.result.connected);
  EXPECT_EQ(hit.result.cost, first.cost);
  EXPECT_EQ(hit.result.tree.edges().size(), first.tree.edges().size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oar::experience
