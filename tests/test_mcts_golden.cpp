// Golden digests of the combinatorial MCTS at search_workers = 1.
//
// Each digest is fnv1a64 over one search result: label, label_mask,
// selected, best_selected, the bits of the initial / final / best costs,
// and the iteration, expansion, simulation, node and executed-move counts.
// The table was recorded from the serial CombMcts at commit 8e96b9d, before
// the serial and tree-parallel searches were merged into one class; the
// one-worker configuration must keep reproducing it bit for bit.
//
// The selector runs int8.  The int8 kernels, src/mcts and src/route build
// without -march=native, so the search itself is host-independent.  The
// int8 pack comes from a calibration pass over the fp32 kernels, which do
// build with the host ISA; the digests therefore assume that pass picks
// the same per-channel maxima (true on FMA-capable x86 hosts).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experience/record.hpp"
#include "experience/store.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "route/oarmst.hpp"
#include "util/hash.hpp"

namespace oar::mcts {
namespace {

struct LayoutSpec {
  std::uint64_t seed;
  std::int32_t h, v, m, pins;
};

constexpr LayoutSpec kLayouts[] = {
    {1, 6, 6, 2, 3},    {2, 6, 6, 2, 4},    {3, 7, 7, 2, 5},
    {4, 8, 8, 2, 4},    {5, 8, 8, 3, 6},    {6, 10, 10, 2, 5},
    {7, 10, 10, 3, 7},  {8, 12, 12, 2, 6},  {9, 12, 12, 3, 8},
    {10, 14, 14, 3, 5}, {11, 16, 16, 4, 6}, {12, 16, 16, 4, 8},
};
constexpr std::size_t kNumLayouts = std::size(kLayouts);

enum Mode { kCritic, kNoCritic, kMaxChildren, kWarmStart, kFarDeadline, kNumModes };
constexpr const char* kModeNames[kNumModes] = {"critic", "no_critic", "max_children",
                                               "warm_start", "far_deadline"};

// kGolden[layout][mode], recorded at commit 8e96b9d.
constexpr std::uint64_t kGolden[kNumLayouts][kNumModes] = {
    {0x1ff680a9a76f78b8ull, 0x1ff680a9a76f78b8ull, 0x7a99859e946130f1ull, 0x85743ef7ab84cb5cull, 0x1ff680a9a76f78b8ull},
    {0x71c539ca3cb3e040ull, 0x0950a31393d8e3b1ull, 0x458e530132e0624bull, 0x1dde9f1653fe2ccdull, 0x71c539ca3cb3e040ull},
    {0x7393cde950b6457eull, 0x7393cde950b6457eull, 0x4f13f31207428372ull, 0x3abd18f531ce09c7ull, 0x7393cde950b6457eull},
    {0x7132af521d714ffaull, 0x1d7aaf30e42fb133ull, 0x22411fcaad8c48e0ull, 0x01efad315ca97c8cull, 0x7132af521d714ffaull},
    {0x401fcddf6a253d23ull, 0xca555f7a9bfe6b99ull, 0x565b84d743584fa9ull, 0x38e8bf4da6dace4aull, 0x401fcddf6a253d23ull},
    {0xdfd89726daa9c32cull, 0xdfd89726daa9c32cull, 0xc22b0e31e7b2e345ull, 0xa574b2401429e7b8ull, 0xdfd89726daa9c32cull},
    {0x30850947f4ed0444ull, 0x30850947f4ed0444ull, 0x2c3b4da6df97b2c5ull, 0x64cbd9d982b5bcc4ull, 0x30850947f4ed0444ull},
    {0xf3edfca564944681ull, 0xab4d58a78872da96ull, 0x148f249dc7a65eb4ull, 0x721ba843b327b4d7ull, 0xf3edfca564944681ull},
    {0x37f3351b7e2c5854ull, 0x37f3351b7e2c5854ull, 0x3cea35593e0d2a63ull, 0x4350c9613c7ded8aull, 0x37f3351b7e2c5854ull},
    {0xed1f7c1ee439d9f8ull, 0xd46c25dc8b69ddf9ull, 0xbdd6b6d68b5c789full, 0xd5ab0bf55cf11be2ull, 0xed1f7c1ee439d9f8ull},
    {0xf3fbbc3173042f02ull, 0xf3fbbc3173042f02ull, 0xfa97c4f690d71123ull, 0x9b9613e43020c3deull, 0xf3fbbc3173042f02ull},
    {0x11ac9da4fd84762full, 0x11ac9da4fd84762full, 0x530cec13066b1137ull, 0x29bc3f46cc100608ull, 0x11ac9da4fd84762full},
};

HananGrid make_layout(const LayoutSpec& s) {
  util::Rng rng(s.seed * 7919 + 17);
  gen::RandomGridSpec spec;
  spec.h = s.h;
  spec.v = s.v;
  spec.m = s.m;
  spec.min_pins = s.pins;
  spec.max_pins = s.pins;
  spec.min_obstacles = 2;
  spec.max_obstacles = 2 + s.h / 3;
  spec.min_edge_cost = 1;
  spec.max_edge_cost = 10;
  return gen::random_grid(spec, rng);
}

CombMctsConfig base_config() {
  CombMctsConfig cfg;
  cfg.iterations_per_move = 128;
  cfg.use_critic = true;
  return cfg;
}

class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const char*>(&value);
    bytes_.append(p, sizeof(T));
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(std::uint64_t(values.size()));
    for (const T& v : values) add(v);
  }
  std::uint64_t value() const { return util::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

std::uint64_t digest_of(const CombMctsResult& r) {
  Digest d;
  d.add_all(r.label);
  d.add_all(r.label_mask);
  d.add_all(r.selected);
  d.add_all(r.best_selected);
  for (const double cost : {r.initial_cost, r.final_cost, r.best_cost}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &cost, sizeof(bits));
    d.add(bits);
  }
  d.add(r.stats.iterations);
  d.add(r.stats.expansions);
  d.add(r.stats.simulations);
  d.add(r.stats.nodes);
  d.add(r.stats.executed_moves);
  return d.value();
}

TEST(CombMctsGolden, SingleWorkerMatchesRecordedDigests) {
  std::vector<HananGrid> grids;
  for (const LayoutSpec& s : kLayouts) grids.push_back(make_layout(s));

  rl::SelectorConfig sc;
  sc.unet.base_channels = 4;
  sc.unet.depth = 2;
  sc.unet.seed = 33;
  rl::SteinerSelector selector(sc);
  std::vector<const HananGrid*> calib;
  for (const HananGrid& g : grids) calib.push_back(&g);
  selector.calibrate_int8(calib);
  ASSERT_TRUE(selector.int8_active());

  for (std::size_t i = 0; i < kNumLayouts; ++i) {
    const HananGrid& grid = grids[i];
    std::uint64_t got[kNumModes] = {};

    const CombMctsResult critic = CombMcts(selector, base_config()).run(grid);
    got[kCritic] = digest_of(critic);

    CombMctsConfig no_critic = base_config();
    no_critic.use_critic = false;
    got[kNoCritic] = digest_of(CombMcts(selector, no_critic).run(grid));

    CombMctsConfig limited = base_config();
    limited.max_children = 4;
    got[kMaxChildren] = digest_of(CombMcts(selector, limited).run(grid));

    // Warm start from a store holding the critic episode of this layout.
    const std::string store_path =
        ::testing::TempDir() + "mcts_golden_" + std::to_string(i) + ".oarexp";
    std::remove(store_path.c_str());
    experience::StoreConfig store_cfg;
    store_cfg.path = store_path;
    experience::Store store(store_cfg);
    route::OarmstRouter router(grid);
    store.put(experience::build_record(
        grid, router.build(grid.pins(), critic.best_selected), critic.label,
        critic.best_selected));
    CombMctsConfig warm = base_config();
    warm.warm_start = true;
    const CombMctsResult warm_res = CombMcts(selector, warm, &store).run(grid);
    EXPECT_TRUE(warm_res.stats.warm_started) << "layout " << i;
    got[kWarmStart] = digest_of(warm_res);
    std::remove(store_path.c_str());

    const CombMctsResult far = CombMcts(selector, base_config())
                                   .run(grid, SearchClock::now() + std::chrono::minutes(10));
    EXPECT_FALSE(far.stats.deadline_hit);
    got[kFarDeadline] = digest_of(far);
    EXPECT_EQ(got[kFarDeadline], got[kCritic]) << "layout " << i;

    for (int mode = 0; mode < kNumModes; ++mode) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", got[mode]);
      EXPECT_EQ(got[mode], kGolden[i][mode])
          << "layout " << i << " mode " << kModeNames[mode] << ": got " << hex;
    }
  }
}

}  // namespace
}  // namespace oar::mcts
