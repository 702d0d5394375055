#pragma once
// Friends-of-Friends-style halo finder (the paper's Nyx post-analysis).
//
// Criteria (paper §V-B): (1) a cell is a halo-cell candidate when its
// density exceeds 81.66x the mean density of the whole dataset; (2) a halo
// is a 6-connected component of candidates with at least `min_cells` cells.
// For each halo the finder reports position (cell centroid), cell count and
// mass (sum of member densities) — the NVB_integral-style output whose
// bit-wise comparison defines the Benign class.
//
// IncrementalHaloFinder answers the same question for a field that differs
// from a golden one in a few cells, in time proportional to those cells
// instead of the grid: it keeps the golden catalog's state and reuses every
// golden component the change cannot reach.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ffis/apps/nyx/density_field.hpp"

namespace ffis::nyx {

struct Halo {
  double cx = 0.0, cy = 0.0, cz = 0.0;  ///< centroid (cell coordinates)
  std::uint64_t cells = 0;
  double mass = 0.0;
};

struct HaloFinderConfig {
  double threshold_factor = 81.66;  ///< candidate threshold over mean density
  std::uint64_t min_cells = 8;      ///< minimum component size to form a halo
};

struct HaloCatalog {
  std::vector<Halo> halos;          ///< sorted: mass desc, then position
  double mean_density = 0.0;
  double threshold = 0.0;
  std::uint64_t candidate_cells = 0;

  /// Deterministic text rendering (positions %.6f, mass %.6e) — the
  /// comparison artifact for outcome classification.
  [[nodiscard]] std::string to_text() const;

  [[nodiscard]] double total_mass() const noexcept;
};

[[nodiscard]] HaloCatalog find_halos(const DensityField& field,
                                     const HaloFinderConfig& config = {});

/// One cell of a field that differs from the golden field.
struct CellEdit {
  std::size_t index = 0;  ///< linear (z, y, x) index
  double value = 0.0;     ///< the cell's new value
};

/// find_halos over "golden field plus a few edited cells", byte-identical to
/// running find_halos on the edited field.
///
/// The golden state: the field's values, its exact sum, the candidate cells
/// with their component labels, each component's start cell (its lowest
/// linear index) and halo sums, and an index of every cell whose value lies
/// above window_floor() sorted by value.  An edit shifts the mean and hence
/// the threshold; only cells between the old and the new threshold change
/// candidacy without being edited, and the index finds them.  Golden
/// components that touch no changed cell are reused as they are; touched
/// ones are flood-filled again from their lowest linear index with
/// find_halos' own stack discipline, so cell counts, mass and centroid sums
/// come out in the identical summation order.
class IncrementalHaloFinder {
 public:
  /// Fraction below the golden threshold down to which cells are indexed.
  /// The new threshold may rise without limit (every cell above the golden
  /// threshold is indexed); it may fall by this fraction before find()
  /// gives up.  Dropping a quarter of the mean takes edits worth a quarter
  /// of the field's whole mass.
  static constexpr double kWindowFraction = 0.25;

  IncrementalHaloFinder(DensityField golden, const HaloFinderConfig& config);

  [[nodiscard]] const DensityField& golden_field() const noexcept { return field_; }
  [[nodiscard]] const HaloCatalog& golden_catalog() const noexcept { return catalog_; }
  /// Lowest new threshold find() can serve (the golden threshold when the
  /// golden mean is not positive and finite: then no cell below it is
  /// indexed).
  [[nodiscard]] double window_floor() const noexcept { return floor_; }

  /// The catalog of the golden field with `edits` applied (ascending,
  /// distinct indices), or nullopt when the new threshold is finite but
  /// below window_floor() (or the golden threshold is not finite) — the
  /// caller then runs find_halos on the edited field.
  [[nodiscard]] std::optional<HaloCatalog> find(std::span<const CellEdit> edits) const;

 private:
  struct Component {
    std::size_t start = 0;         ///< lowest linear index (flood-fill seed)
    std::size_t member_begin = 0;  ///< this component's cells in members_
    std::size_t member_end = 0;
    std::optional<Halo> halo;      ///< set when cells >= min_cells
  };

  DensityField field_;
  HaloFinderConfig config_;
  util::ExactSum sum_;
  HaloCatalog catalog_;
  std::vector<std::size_t> candidates_;     ///< golden candidates, ascending
  std::vector<std::uint32_t> labels_;       ///< component of candidates_[i]
  std::vector<Component> components_;       ///< in start order
  std::vector<std::size_t> members_;        ///< cells grouped by component
  double floor_ = 0.0;
  std::vector<std::pair<double, std::size_t>> index_;  ///< (value, cell), ascending
};

}  // namespace ffis::nyx
