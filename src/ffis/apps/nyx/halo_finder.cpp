#include "ffis/apps/nyx/halo_finder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "ffis/util/strfmt.hpp"

namespace ffis::nyx {

double HaloCatalog::total_mass() const noexcept {
  double sum = 0.0;
  for (const auto& h : halos) sum += h.mass;
  return sum;
}

std::string HaloCatalog::to_text() const {
  std::string out = "# halo catalog: id cx cy cz cells mass\n";
  char line[160];
  for (std::size_t i = 0; i < halos.size(); ++i) {
    const auto& h = halos[i];
    std::snprintf(line, sizeof line, "%zu %.6f %.6f %.6f %llu %.6e\n", i, h.cx, h.cy,
                  h.cz, static_cast<unsigned long long>(h.cells), h.mass);
    out += line;
  }
  out += util::fmt("total_halos={}\n", halos.size());
  return out;
}

namespace {

struct ComponentSums {
  double sx = 0.0, sy = 0.0, sz = 0.0, mass = 0.0;
  std::uint64_t cells = 0;
};

/// Grows the 6-connected component whose (already claimed) lowest cell is
/// `start`.  claim(i) returns true, and marks i visited, when cell i is an
/// unvisited candidate; value(i) is its density; on_cell(i) sees each member
/// as it is popped.  The one stack discipline of both finders: the pop order
/// fixes the summation order of the component's sums.
template <typename Claim, typename Value, typename OnCell>
ComponentSums flood(std::size_t start, std::size_t n, std::vector<std::size_t>& stack,
                    Claim&& claim, Value&& value, OnCell&& on_cell) {
  ComponentSums sums;
  const std::size_t plane = n * n;
  stack.assign(1, start);
  while (!stack.empty()) {
    const std::size_t idx = stack.back();
    stack.pop_back();
    const std::size_t x = idx % n;
    const std::size_t y = (idx / n) % n;
    const std::size_t z = idx / plane;
    sums.sx += static_cast<double>(x);
    sums.sy += static_cast<double>(y);
    sums.sz += static_cast<double>(z);
    sums.mass += value(idx);
    ++sums.cells;
    on_cell(idx);

    const auto visit = [&](std::size_t nidx) {
      if (claim(nidx)) stack.push_back(nidx);
    };
    if (x > 0) visit(idx - 1);
    if (x + 1 < n) visit(idx + 1);
    if (y > 0) visit(idx - n);
    if (y + 1 < n) visit(idx + n);
    if (z > 0) visit(idx - plane);
    if (z + 1 < n) visit(idx + plane);
  }
  return sums;
}

Halo to_halo(const ComponentSums& sums) {
  Halo halo;
  halo.cells = sums.cells;
  halo.mass = sums.mass;
  halo.cx = sums.sx / static_cast<double>(sums.cells);
  halo.cy = sums.sy / static_cast<double>(sums.cells);
  halo.cz = sums.sz / static_cast<double>(sums.cells);
  return halo;
}

/// Catalog order: mass descending, then position.  Callers hand halos over
/// in component start order, so equal inputs sort identically.
void sort_halos(std::vector<Halo>& halos) {
  std::sort(halos.begin(), halos.end(), [](const Halo& a, const Halo& b) {
    if (a.mass != b.mass) return a.mass > b.mass;
    if (a.cz != b.cz) return a.cz < b.cz;
    if (a.cy != b.cy) return a.cy < b.cy;
    return a.cx < b.cx;
  });
}

template <typename Fn>
void for_each_neighbour(std::size_t idx, std::size_t n, Fn&& fn) {
  const std::size_t plane = n * n;
  const std::size_t x = idx % n;
  const std::size_t y = (idx / n) % n;
  const std::size_t z = idx / plane;
  if (x > 0) fn(idx - 1);
  if (x + 1 < n) fn(idx + 1);
  if (y > 0) fn(idx - n);
  if (y + 1 < n) fn(idx + n);
  if (z > 0) fn(idx - plane);
  if (z + 1 < n) fn(idx + plane);
}

bool is_candidate(double v, double threshold) noexcept {
  return std::isfinite(v) && v > threshold;
}

/// One golden component as the full scan found it.
struct ScannedComponent {
  std::size_t start = 0;
  std::vector<std::size_t> members;
  std::optional<Halo> halo;
};

/// What a golden scan records besides the catalog.
struct GoldenScan {
  double floor = 0.0;  ///< index every cell above this value
  std::vector<std::pair<double, std::size_t>> index;  ///< (value, cell), cell order
  std::vector<ScannedComponent> components;           ///< start order
};

/// The full finder at a given mean; records the golden state when `golden`
/// is non-null.
HaloCatalog scan(const DensityField& field, const HaloFinderConfig& config, double mean,
                 GoldenScan* golden) {
  const std::size_t n = field.n();
  const std::size_t total = field.size();
  const std::vector<double>& data = field.data();

  HaloCatalog catalog;
  catalog.mean_density = mean;
  catalog.threshold = config.threshold_factor * mean;
  // A non-finite mean (overflowed or NaN-poisoned data) yields a threshold no
  // cell can satisfy; the catalog comes out empty, which the application
  // classifies as Detected ("no halo found").
  if (!std::isfinite(catalog.threshold)) return catalog;

  // 0: not a candidate, 1: unvisited candidate, 2: visited.
  std::vector<std::uint8_t> state(total, 0);
  std::vector<std::size_t> candidates;  // ascending: the possible starts
  for (std::size_t i = 0; i < total; ++i) {
    if (is_candidate(data[i], catalog.threshold)) {
      state[i] = 1;
      candidates.push_back(i);
    }
    if (golden != nullptr && is_candidate(data[i], golden->floor)) {
      golden->index.emplace_back(data[i], i);
    }
  }
  catalog.candidate_cells = candidates.size();

  // 6-connected component growth (friends-of-friends at linking length 1).
  const auto claim = [&](std::size_t i) {
    if (state[i] != 1) return false;
    state[i] = 2;
    return true;
  };
  const auto value = [&](std::size_t i) { return data[i]; };
  std::vector<std::size_t> stack;
  for (const std::size_t start : candidates) {
    if (!claim(start)) continue;
    std::vector<std::size_t>* members = nullptr;
    if (golden != nullptr) {
      golden->components.push_back(ScannedComponent{.start = start, .members = {}, .halo = {}});
      members = &golden->components.back().members;
    }
    const ComponentSums sums = flood(start, n, stack, claim, value, [&](std::size_t i) {
      if (members != nullptr) members->push_back(i);
    });
    if (sums.cells >= config.min_cells) {
      catalog.halos.push_back(to_halo(sums));
      if (golden != nullptr) golden->components.back().halo = catalog.halos.back();
    }
  }
  sort_halos(catalog.halos);
  return catalog;
}

}  // namespace

HaloCatalog find_halos(const DensityField& field, const HaloFinderConfig& config) {
  return scan(field, config, field.mean(), nullptr);
}

IncrementalHaloFinder::IncrementalHaloFinder(DensityField golden,
                                             const HaloFinderConfig& config)
    : field_(std::move(golden)), config_(config), sum_(field_.exact_sum()) {
  const double mean = sum_.mean(field_.size());
  const double t0 = config_.threshold_factor * mean;  // scan's own threshold
  GoldenScan scanned;
  scanned.floor = std::isfinite(t0) && t0 > 0.0 ? t0 * (1.0 - kWindowFraction) : t0;
  catalog_ = scan(field_, config_, mean, &scanned);
  floor_ = scanned.floor;
  index_ = std::move(scanned.index);
  std::sort(index_.begin(), index_.end());

  std::vector<std::pair<std::size_t, std::uint32_t>> labelled;
  components_.reserve(scanned.components.size());
  for (std::size_t c = 0; c < scanned.components.size(); ++c) {
    const ScannedComponent& found = scanned.components[c];
    Component comp;
    comp.start = found.start;
    comp.member_begin = members_.size();
    for (const std::size_t cell : found.members) {
      members_.push_back(cell);
      labelled.emplace_back(cell, static_cast<std::uint32_t>(c));
    }
    comp.member_end = members_.size();
    comp.halo = found.halo;
    components_.push_back(comp);
  }
  std::sort(labelled.begin(), labelled.end());
  candidates_.reserve(labelled.size());
  labels_.reserve(labelled.size());
  for (const auto& [cell, label] : labelled) {
    candidates_.push_back(cell);
    labels_.push_back(label);
  }
}

std::optional<HaloCatalog> IncrementalHaloFinder::find(
    std::span<const CellEdit> edits) const {
  const std::size_t n = field_.n();
  const std::vector<double>& golden = field_.data();

  // Only edits that change a cell's bits count; the exact sum moves by
  // exactly their delta, so the mean equals the full pass's bit for bit.
  std::vector<CellEdit> changed;
  changed.reserve(edits.size());
  util::ExactSum sum = sum_;
  for (const CellEdit& e : edits) {
    const double old_value = golden[e.index];
    if (std::bit_cast<std::uint64_t>(old_value) == std::bit_cast<std::uint64_t>(e.value)) {
      continue;
    }
    sum.subtract(old_value);
    sum.add(e.value);
    changed.push_back(e);
  }
  if (changed.empty()) return catalog_;

  HaloCatalog out;
  out.mean_density = sum.mean(field_.size());
  out.threshold = config_.threshold_factor * out.mean_density;
  if (!std::isfinite(out.threshold)) return out;  // find_halos' empty catalog
  const double t0 = catalog_.threshold;
  const double t1 = out.threshold;
  if (!std::isfinite(t0) || t1 < floor_) return std::nullopt;

  const auto value = [&](std::size_t i) {
    const auto it = std::lower_bound(
        changed.begin(), changed.end(), i,
        [](const CellEdit& e, std::size_t cell) { return e.index < cell; });
    return it != changed.end() && it->index == i ? it->value : golden[i];
  };
  const auto candidate_now = [&](std::size_t i) { return is_candidate(value(i), t1); };
  const auto candidate_before = [&](std::size_t i) { return is_candidate(golden[i], t0); };
  const auto label_of = [&](std::size_t i) {
    const auto it = std::lower_bound(candidates_.begin(), candidates_.end(), i);
    return labels_[static_cast<std::size_t>(it - candidates_.begin())];
  };

  // Cells whose value or candidacy may have changed: the edits, plus the
  // unedited cells between the two thresholds (all indexed: both thresholds
  // are at or above the window floor).
  std::vector<std::size_t> moved;
  moved.reserve(changed.size());
  for (const CellEdit& e : changed) moved.push_back(e.index);
  if (t1 != t0) {
    const double low = std::min(t0, t1);
    const double high = std::max(t0, t1);
    auto it = std::upper_bound(
        index_.begin(), index_.end(), low,
        [](double v, const std::pair<double, std::size_t>& entry) { return v < entry.first; });
    for (; it != index_.end() && it->first <= high; ++it) moved.push_back(it->second);
    std::sort(moved.begin(), moved.end());
    moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
  }

  // A golden component is reusable unless one of its cells moved or a cell
  // next to it became a candidate (a merge or an extension).
  std::vector<char> touched(components_.size(), 0);
  out.candidate_cells = catalog_.candidate_cells;
  for (const std::size_t cell : moved) {
    const bool before = candidate_before(cell);
    const bool now = candidate_now(cell);
    if (before) touched[label_of(cell)] = 1;
    if (now) {
      for_each_neighbour(cell, n, [&](std::size_t nb) {
        if (candidate_before(nb)) touched[label_of(nb)] = 1;
      });
    }
    out.candidate_cells = out.candidate_cells + (now ? 1 : 0) - (before ? 1 : 0);
  }

  // Every cell of a component that changed is a seed: the surviving members
  // of touched golden components plus the moved cells that are candidates.
  // Ascending order makes each component's first seed its lowest cell — the
  // start find_halos would use.
  std::vector<std::size_t> seeds;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (touched[c] == 0) continue;
    for (std::size_t m = components_[c].member_begin; m < components_[c].member_end; ++m) {
      if (candidate_now(members_[m])) seeds.push_back(members_[m]);
    }
  }
  for (const std::size_t cell : moved) {
    if (candidate_now(cell)) seeds.push_back(cell);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  std::unordered_set<std::size_t> visited;
  visited.reserve(seeds.size() * 2);
  const auto claim = [&](std::size_t i) {
    return candidate_now(i) && visited.insert(i).second;
  };
  std::vector<std::pair<std::size_t, Halo>> regrown;
  std::vector<std::size_t> stack;
  for (const std::size_t start : seeds) {
    if (!visited.insert(start).second) continue;
    const ComponentSums sums = flood(start, n, stack, claim, value, [](std::size_t) {});
    if (sums.cells >= config_.min_cells) regrown.emplace_back(start, to_halo(sums));
  }

  // Halos in component start order, as find_halos collects them.
  auto next = regrown.begin();
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const Component& comp = components_[c];
    if (touched[c] != 0 || !comp.halo) continue;
    for (; next != regrown.end() && next->first < comp.start; ++next) {
      out.halos.push_back(next->second);
    }
    out.halos.push_back(*comp.halo);
  }
  for (; next != regrown.end(); ++next) out.halos.push_back(next->second);
  sort_halos(out.halos);
  return out;
}

}  // namespace ffis::nyx
