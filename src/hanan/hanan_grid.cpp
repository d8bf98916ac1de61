#include "hanan/hanan_grid.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

namespace oar::hanan {

std::uint64_t HananGrid::next_revision() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

HananGrid::HananGrid(std::int32_t H, std::int32_t V, std::int32_t M,
                     std::vector<double> x_step, std::vector<double> y_step,
                     double via_cost, std::vector<std::uint8_t> blocked,
                     std::vector<Vertex> pins)
    : h_(H),
      v_(V),
      m_(M),
      x_step_(std::move(x_step)),
      y_step_(std::move(y_step)),
      via_cost_(via_cost) {
  assert(H >= 1 && V >= 1 && M >= 1);
  assert(std::ssize(x_step_) == H - 1);
  assert(std::ssize(y_step_) == V - 1);
  const auto n = std::size_t(num_vertices());
  if (blocked.empty()) {
    blocked_.assign(n, 0);
  } else {
    assert(blocked.size() == n);
    blocked_ = std::move(blocked);
  }
  edge_block_.assign(n, 0);
  pin_mask_.assign(n, 0);
  for (Vertex p : pins) add_pin(p);
}

void HananGrid::add_pin(Vertex idx) {
  assert(idx >= 0 && idx < num_vertices());
  assert(!is_blocked(idx));
  if (pin_mask_[std::size_t(idx)]) return;
  pin_mask_[std::size_t(idx)] = 1;
  pins_.push_back(idx);
  revision_ = next_revision();
}

void HananGrid::clear_pins() {
  if (pins_.empty()) return;
  for (Vertex p : pins_) pin_mask_[std::size_t(p)] = 0;
  pins_.clear();
  revision_ = next_revision();
}

void HananGrid::block_vertex(Vertex idx) {
  assert(idx >= 0 && idx < num_vertices());
  assert(!is_pin(idx));
  blocked_[std::size_t(idx)] = 1;
  revision_ = next_revision();
}

void HananGrid::block_edge(Vertex idx, Dir dir) {
  assert(idx >= 0 && idx < num_vertices());
  edge_block_[std::size_t(idx)] |= std::uint8_t(1u << std::uint8_t(dir));
  revision_ = next_revision();
}

bool HananGrid::edge_usable(Vertex idx, Dir dir) const {
  const Cell c = cell(idx);
  Vertex other;
  switch (dir) {
    case Dir::kPosX:
      if (c.h + 1 >= h_) return false;
      other = idx + 1;
      break;
    case Dir::kPosY:
      if (c.v + 1 >= v_) return false;
      other = idx + h_;
      break;
    case Dir::kPosZ:
      if (c.m + 1 >= m_) return false;
      other = idx + Vertex(h_) * v_;
      break;
    default:
      return false;
  }
  if (blocked_[std::size_t(idx)] || blocked_[std::size_t(other)]) return false;
  return (edge_block_[std::size_t(idx)] & (1u << std::uint8_t(dir))) == 0;
}

void HananGrid::set_edge_cost_bias(Vertex idx, Dir dir, double bias) {
  assert(idx >= 0 && idx < num_vertices());
  assert(bias >= 0.0);
  if (edge_bias_.empty()) {
    if (bias == 0.0) return;
    edge_bias_.assign(std::size_t(num_vertices()) * 3, 0.0);
  }
  double& slot = edge_bias_[std::size_t(idx) * 3 + std::size_t(dir)];
  if (slot == bias) return;
  slot = bias;
  revision_ = next_revision();
}

bool HananGrid::set_edge_cost_biases(const std::vector<double>& bias) {
  assert(bias.empty() || bias.size() == std::size_t(num_vertices()) * 3);
  if (bias == edge_bias_) return false;
  // An all-zero overlay is the same cost function as no overlay at all;
  // normalize to empty so the unbiased fast paths stay in effect.
  if (std::all_of(bias.begin(), bias.end(), [](double b) { return b == 0.0; })) {
    if (edge_bias_.empty()) return false;
    edge_bias_.clear();  // keeps the storage for the next overlay
  } else {
    edge_bias_.assign(bias.begin(), bias.end());
  }
  revision_ = next_revision();
  return true;
}

void HananGrid::clear_edge_cost_biases() {
  const bool had_bias = !edge_bias_.empty();
  std::vector<double>().swap(edge_bias_);  // releases the 24 B/vertex buffer
  if (had_bias) revision_ = next_revision();
}

double HananGrid::edge_cost(Vertex idx, Dir dir) const {
  const Cell c = cell(idx);
  double cost = 0.0;
  switch (dir) {
    case Dir::kPosX: cost = x_step_[std::size_t(c.h)]; break;
    case Dir::kPosY: cost = y_step_[std::size_t(c.v)]; break;
    case Dir::kPosZ: cost = via_cost_; break;
  }
  return cost + edge_cost_bias(idx, dir);
}

double HananGrid::base_cost_between(Vertex a, Vertex b) const {
  if (a > b) std::swap(a, b);
  const Vertex diff = b - a;
  const Cell ca = cell(a);
  if (diff == 1 && h_ > 1) {
    assert(ca.h + 1 < h_);
    return x_step_[std::size_t(ca.h)];
  }
  if (diff == h_ && v_ > 1) {
    assert(ca.v + 1 < v_);
    return y_step_[std::size_t(ca.v)];
  }
  assert(diff == Vertex(h_) * v_);
  (void)ca;
  return via_cost_;
}

double HananGrid::cost_between(Vertex a, Vertex b) const {
  if (a > b) std::swap(a, b);
  const double base = base_cost_between(a, b);
  if (edge_bias_.empty()) return base;
  const Vertex diff = b - a;
  Dir dir = Dir::kPosZ;
  if (diff == 1 && h_ > 1) dir = Dir::kPosX;
  else if (diff == h_ && v_ > 1) dir = Dir::kPosY;
  return base + edge_cost_bias(a, dir);
}

double HananGrid::blocked_ratio() const {
  if (blocked_.empty()) return 0.0;
  std::int64_t n = 0;
  for (auto b : blocked_) n += b != 0;
  return double(n) / double(blocked_.size());
}

std::string HananGrid::validate() const {
  std::ostringstream problems;
  if (h_ < 1 || v_ < 1 || m_ < 1) problems << "non-positive dims; ";
  for (double s : x_step_) {
    if (s <= 0.0) problems << "non-positive x step; ";
  }
  for (double s : y_step_) {
    if (s <= 0.0) problems << "non-positive y step; ";
  }
  if (via_cost_ < 0.0) problems << "negative via cost; ";
  if (!edge_bias_.empty() && edge_bias_.size() != std::size_t(num_vertices()) * 3) {
    problems << "edge bias overlay size mismatch; ";
  }
  for (double b : edge_bias_) {
    if (!(b >= 0.0)) {  // also catches NaN
      problems << "negative or NaN edge cost bias; ";
      break;
    }
  }
  for (Vertex p : pins_) {
    if (p < 0 || p >= num_vertices()) problems << "pin index out of range; ";
    else if (is_blocked(p)) problems << "pin on blocked vertex; ";
  }
  return problems.str();
}

HananGrid HananGrid::from_layout(const geom::Layout& layout) {
  // 1. Consolidate all objects onto one layer and collect the x / y cuts.
  std::vector<double> xs, ys;
  for (const auto& pin : layout.pins()) {
    xs.push_back(pin.x);
    ys.push_back(pin.y);
  }
  for (const auto& o : layout.obstacles()) {
    xs.push_back(o.rect.lo.x);
    xs.push_back(o.rect.hi.x);
    ys.push_back(o.rect.lo.y);
    ys.push_back(o.rect.hi.y);
  }
  auto dedupe = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    if (v.empty()) v.push_back(0.0);
  };
  dedupe(xs);
  dedupe(ys);

  const auto H = std::int32_t(xs.size());
  const auto V = std::int32_t(ys.size());
  const auto M = layout.num_layers();
  std::vector<double> x_step(std::size_t(std::max(0, H - 1)));
  std::vector<double> y_step(std::size_t(std::max(0, V - 1)));
  for (std::int32_t i = 0; i + 1 < H; ++i) x_step[std::size_t(i)] = xs[std::size_t(i + 1)] - xs[std::size_t(i)];
  for (std::int32_t j = 0; j + 1 < V; ++j) y_step[std::size_t(j)] = ys[std::size_t(j + 1)] - ys[std::size_t(j)];

  HananGrid grid(H, V, M, std::move(x_step), std::move(y_step), layout.via_cost());
  grid.x_cuts_ = xs;
  grid.y_cuts_ = ys;

  auto cut_index = [](const std::vector<double>& cuts, double value) {
    const auto it = std::lower_bound(cuts.begin(), cuts.end(), value);
    return std::int32_t(it - cuts.begin());
  };

  // 2. Relocate each obstacle onto its original layer: block vertices whose
  //    coordinate is strictly inside the obstacle, and block boundary-to-
  //    boundary edges whose open segment crosses the interior.
  for (const auto& o : layout.obstacles()) {
    const std::int32_t hi_lo = cut_index(xs, o.rect.lo.x);
    const std::int32_t hi_hi = cut_index(xs, o.rect.hi.x);
    const std::int32_t vi_lo = cut_index(ys, o.rect.lo.y);
    const std::int32_t vi_hi = cut_index(ys, o.rect.hi.y);
    // Strict interior vertices.
    for (std::int32_t h = hi_lo + 1; h < hi_hi; ++h) {
      for (std::int32_t v = vi_lo + 1; v < vi_hi; ++v) {
        const Vertex idx = grid.index(h, v, o.layer);
        if (!grid.is_pin(idx)) grid.block_vertex(idx);
      }
    }
    // Horizontal edges crossing the interior at a row strictly inside.
    for (std::int32_t v = vi_lo + 1; v < vi_hi; ++v) {
      for (std::int32_t h = hi_lo; h < hi_hi; ++h) {
        grid.block_edge(grid.index(h, v, o.layer), Dir::kPosX);
      }
    }
    // Vertical edges crossing the interior at a column strictly inside.
    for (std::int32_t h = hi_lo + 1; h < hi_hi; ++h) {
      for (std::int32_t v = vi_lo; v < vi_hi; ++v) {
        grid.block_edge(grid.index(h, v, o.layer), Dir::kPosY);
      }
    }
  }

  // 3. Relocate pins.
  for (const auto& pin : layout.pins()) {
    grid.add_pin(grid.index(cut_index(xs, pin.x), cut_index(ys, pin.y), pin.layer));
  }
  return grid;
}

}  // namespace oar::hanan
