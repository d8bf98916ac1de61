// Golden digests of full-chip negotiated routing.
//
// Each digest is fnv1a64 over one chip::ChipResult: for every net in
// netlist order its committed tree's edges, routed flag, reroute count,
// vias and wirelength bits; the per-iteration overflow, overflowed-edge
// and rerouted-net series; and the final overflow, wirelength bits and
// iteration count.  The chips are seeded at oarbench's chip density
// (dim * dim * m / 10 obstacles, 2-5-pin nets); every one negotiates for
// at least three iterations, so reroutes under a changed congestion
// overlay are part of what the digests pin, and on every one the RL
// engine's Steiner points change some committed tree (its digest differs
// from the baseline's).
//
// Both engines run through core::Router::route(grid, netlist): "rl-ours"
// on the seeded, untrained pretrained_selector_config() network (fp32,
// loaded from a checkpoint through OARSMTRL_MODEL, as oarbench's chip
// workload does) and the "lin08" baseline.  The fp32 forward runs the
// conv kernels built with the host ISA, so like Fp32Digest.* the rl-ours
// digests assume an FMA-capable x86 host.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pretrained.hpp"
#include "core/router.hpp"
#include "gen/random_layout.hpp"
#include "gen/random_netlist.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace oar::chip {
namespace {

struct ChipSpec {
  std::uint64_t seed;
  std::int32_t dim, layers, nets;
};

struct Chip {
  HananGrid grid;
  Netlist netlist;
};

Chip make_chip(const ChipSpec& s) {
  util::Rng rng(s.seed);
  gen::RandomGridSpec spec;
  spec.h = spec.v = s.dim;
  spec.m = s.layers;
  spec.min_pins = spec.max_pins = 2;  // placeholders; the netlist brings pins
  spec.min_obstacles = spec.max_obstacles = s.dim * s.dim * s.layers / 10;
  Chip c{gen::random_grid(spec, rng), {}};
  c.grid.clear_pins();
  gen::RandomNetlistSpec ns;
  ns.min_pins = 2;
  ns.max_pins = 5;
  c.netlist = gen::random_netlist(c.grid, s.nets, rng, ns);
  return c;
}

class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const char*>(&value);
    bytes_.append(p, sizeof(T));
  }
  void add_bits(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const { return util::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

std::uint64_t digest_of(const ChipResult& r) {
  Digest d;
  d.add(std::uint64_t(r.nets.size()));
  for (const NetRoute& net : r.nets) {
    d.add(std::uint64_t(net.tree.edges().size()));
    for (const route::GridEdge& e : net.tree.edges()) {
      d.add(e.a);
      d.add(e.b);
    }
    d.add(net.routed);
    d.add(net.reroutes);
    d.add(net.vias);
    d.add_bits(net.wirelength);
  }
  d.add(std::uint64_t(r.iterations.size()));
  for (const IterationStats& it : r.iterations) {
    d.add(it.overflow);
    d.add(it.overflowed_edges);
    d.add(it.rerouted_nets);
  }
  d.add(r.overflow);
  d.add_bits(r.wirelength);
  d.add(r.iterations_run);
  return d.value();
}

/// Points OARSMTRL_MODEL at a checkpoint of the seeded, untrained
/// pretrained-config selector for the lifetime of the object.
class SeededModel {
 public:
  SeededModel() : path_(::testing::TempDir() + "chip_golden_selector.bin") {
    rl::SteinerSelector selector(core::pretrained_selector_config());
    ok_ = selector.save(path_);
    if (const char* old = std::getenv("OARSMTRL_MODEL")) previous_ = old;
    ::setenv("OARSMTRL_MODEL", path_.c_str(), 1);
  }
  ~SeededModel() {
    if (previous_) {
      ::setenv("OARSMTRL_MODEL", previous_->c_str(), 1);
    } else {
      ::unsetenv("OARSMTRL_MODEL");
    }
    std::remove(path_.c_str());
  }
  bool ok() const { return ok_; }

 private:
  std::string path_;
  std::optional<std::string> previous_;
  bool ok_ = false;
};

constexpr ChipSpec kChips[] = {
    {4, 16, 4, 10},  {7, 16, 4, 10},  {15, 16, 4, 10},
    {32, 16, 4, 10}, {26, 32, 8, 14},
};
constexpr std::size_t kNumChips = std::size(kChips);

constexpr const char* kEngines[] = {"rl-ours", "lin08"};
constexpr std::size_t kNumEngines = std::size(kEngines);

// kGolden[chip][engine], recorded before the per-net Steiner-point memo.
constexpr std::uint64_t kGolden[kNumChips][kNumEngines] = {
    {0xacc413fa14caf205ull, 0xa33445ff619ecb95ull},
    {0xdcf27505baff97c7ull, 0x3b7ba2def43e98b9ull},
    {0x316901fa6d26fbb3ull, 0xebc3f18b9bda8eb6ull},
    {0xae3a09ef2ad185a6ull, 0xa5afab30edb0cd97ull},
    {0x02b4ba62ab14867bull, 0x26de53f6b294c2e3ull},
};

TEST(ChipGolden, NegotiatedRoutesMatchRecordedDigests) {
  SeededModel model;
  ASSERT_TRUE(model.ok());
  ASSERT_NE(core::load_pretrained(), nullptr);

  for (std::size_t e = 0; e < kNumEngines; ++e) {
    core::RouterOptions options;
    options.engine = kEngines[e];
    options.collect_obs = false;
    core::Router router(options);
    for (std::size_t i = 0; i < kNumChips; ++i) {
      const Chip c = make_chip(kChips[i]);
      const core::ChipRouteResult r = router.route(c.grid, c.netlist);
      EXPECT_TRUE(r.success()) << "chip " << i << " engine " << kEngines[e];
      EXPECT_GE(r.result.iterations_run, 3)
          << "chip " << i << " engine " << kEngines[e];
      const std::uint64_t got = digest_of(r.result);
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", got);
      EXPECT_EQ(got, kGolden[i][e])
          << "chip " << i << " engine " << kEngines[e] << ": got " << hex;
    }
  }
}

}  // namespace
}  // namespace oar::chip
