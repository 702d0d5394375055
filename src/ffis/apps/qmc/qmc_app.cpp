#include "ffis/apps/qmc/qmc_app.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ffis/util/serialize.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::qmc {

QmcApp::QmcApp(QmcAppConfig config) : config_(std::move(config)) {}

const RenderedSeries& QmcApp::LazySeries::get(const std::vector<ScalarRow>& rows,
                                              const ScalarIoOptions& options) const {
  std::call_once(once_, [&] { series_ = render_scalar_series(rows, options); });
  return series_;
}

std::shared_ptr<const QmcApp::Trace> QmcApp::trace(std::uint64_t seed) const {
  std::lock_guard lock(cache_mutex_);
  if (!cached_trace_ || cached_seed_ != seed) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL);
    auto t = std::make_shared<Trace>();
    VmcResult vmc = run_vmc(config_.psi, config_.vmc, rng);
    DmcResult dmc = run_dmc(config_.psi, std::move(vmc.walkers), config_.dmc, rng);
    t->vmc_rows = std::move(vmc.rows);
    t->dmc_rows = std::move(dmc.rows);
    t->dmc_mean_energy = dmc.mean_energy;
    cached_trace_ = std::move(t);
    cached_seed_ = seed;
  }
  return cached_trace_;
}

void QmcApp::run_range(const core::RunContext& ctx, bool ingest, int first,
                       int last) const {
  const auto t = trace(ctx.app_seed);

  if (ingest) {
    // Input echo, written first like QMCPACK's <project>.cont.xml.
    const std::string xml = util::fmt(
        "<?xml version=\"1.0\"?>\n<simulation>\n"
        "  <project id=\"He\" series=\"0\"/>\n"
        "  <qmc method=\"vmc\" walkers=\"{}\" steps=\"{}\"/>\n"
        "  <qmc method=\"dmc\" walkers=\"{}\" steps=\"{}\" timestep=\"{}\"/>\n"
        "</simulation>\n",
        config_.vmc.walkers, config_.vmc.steps, config_.dmc.target_walkers,
        config_.dmc.steps, config_.dmc.tau);
    vfs::write_text_file(ctx.fs, config_.prefix + ".cont.xml", xml);
  }

  if (first <= 1 && 1 <= last) {
    ctx.enter_stage(1);
    write_rendered_series(ctx.fs, vmc_path(), t->vmc_series.get(t->vmc_rows, config_.io));
    ctx.leave_stage(1);
  }
  if (first <= 2 && 2 <= last) {
    ctx.enter_stage(2);
    write_rendered_series(ctx.fs, dmc_path(), t->dmc_series.get(t->dmc_rows, config_.io));
    ctx.leave_stage(2);
  }
}

void QmcApp::run(const core::RunContext& ctx) const { run_range(ctx, true, 1, 2); }

void QmcApp::run_prefix(const core::RunContext& ctx, int stage) const {
  if (stage < 1 || stage > stage_count()) {
    throw std::invalid_argument("qmcpack: no such stage " + std::to_string(stage));
  }
  run_range(ctx, true, 1, stage - 1);
}

void QmcApp::run_from(const core::RunContext& ctx, int stage) const {
  if (stage < 1 || stage > stage_count()) {
    throw std::invalid_argument("qmcpack: no such stage " + std::to_string(stage));
  }
  run_range(ctx, false, stage, stage_count());
}

core::AnalysisResult QmcApp::analysis_from(const QmcaResult& qmca, util::Bytes s001) {
  core::AnalysisResult result;
  result.comparison_blob = std::move(s001);
  result.report = util::fmt("He series 001: E = {:.6f} +/- {:.6f} Ha ({} rows, {} skipped{})\n",
                            qmca.mean_energy, qmca.error_bar, qmca.rows_used,
                            qmca.rows_skipped,
                            qmca.nul_bytes_found ? ", binary garbage detected" : "");
  result.metrics["energy"] = qmca.mean_energy;
  result.metrics["error_bar"] = qmca.error_bar;
  result.metrics["rows_used"] = static_cast<double>(qmca.rows_used);
  result.metrics["rows_skipped"] = static_cast<double>(qmca.rows_skipped);
  result.metrics["nul_detected"] = qmca.nul_bytes_found ? 1.0 : 0.0;
  return result;
}

core::AnalysisResult QmcApp::analyze_series(util::Bytes s001) const {
  const QmcaResult qmca = analyze_scalar_text(util::char_view(s001), config_.qmca);
  return analysis_from(qmca, std::move(s001));
}

core::AnalysisResult QmcApp::analyze(vfs::FileSystem& fs) const {
  // The paper compares He.s001.scalar.dat bit-wise and then post-analyzes it.
  return analyze_series(vfs::read_file(fs, dmc_path()));
}

/// The golden s001 parse for diff-driven re-analysis.  Shared by every cell
/// whose golden series has the same bytes.
struct QmcApp::GoldenState final : core::GoldenArtifacts {
  util::Bytes text;               ///< golden s001 bytes (also the sharing key)
  std::size_t header_end = 0;     ///< offset of the header line's '\n'
  ScalarSeries series;            ///< every golden data row, parsed
  std::vector<ScalarLine> lines;  ///< one entry per golden data line
};

std::shared_ptr<const core::GoldenArtifacts> QmcApp::golden_artifacts(
    vfs::FileSystem& /*golden_fs*/, const core::AnalysisResult& golden) const {
  // analyze() made the comparison blob the raw golden s001 bytes, so the
  // golden series needs no re-read.
  const util::Bytes& text = golden.comparison_blob;
  std::lock_guard lock(golden_mutex_);
  std::erase_if(golden_states_, [](const auto& weak) { return weak.expired(); });
  for (const auto& weak : golden_states_) {
    std::shared_ptr<const GoldenState> state = weak.lock();
    if (state != nullptr && state->text == text) return state;
  }

  auto state = std::make_shared<GoldenState>();
  state->text = text;
  const std::string_view view = util::char_view(state->text);
  try {
    state->header_end = check_scalar_header(view);
  } catch (const QmcaError&) {
    return nullptr;  // analyze_dirty falls back to the full analysis
  }
  // A fault-free series is NUL-free, which lets analyze_dirty look for NUL
  // bytes in the dirty ranges only.
  if (view.find('\0', state->header_end + 1) != std::string_view::npos) return nullptr;
  parse_scalar_lines(view, state->header_end + 1, view.size(), state->series, &state->lines);
  golden_states_.push_back(state);
  return state;
}

core::AnalysisResult QmcApp::analyze_dirty(vfs::FileSystem& fs, const vfs::FsDiff& diff,
                                           const core::AnalysisResult& golden,
                                           const core::GoldenArtifacts* artifacts) const {
  const std::string path = dmc_path();
  if (!diff.touches(path)) return golden;

  const auto with_reason = [](core::AnalysisResult result, core::FullAnalysisReason reason) {
    result.metrics[core::kFullAnalysisReasonMetric] = static_cast<double>(reason);
    return result;
  };
  const auto* state = dynamic_cast<const GoldenState*>(artifacts);
  if (state == nullptr) {
    return with_reason(analyze(fs), core::FullAnalysisReason::NoGoldenArtifacts);
  }
  const vfs::FileDiff* fd = diff.find(path);
  if (fd == nullptr || fd->metadata_changed || fd->ranges.empty()) {
    return with_reason(analyze(fs), core::FullAnalysisReason::MetadataChanged);
  }
  // Splicing is provably equivalent only for a pure in-place change below
  // the header: a size change moves every later byte, and the header decides
  // whether QMCA parses the file at all.
  util::Bytes s001 = vfs::read_file(fs, path);
  const std::vector<vfs::ByteRange>& ranges = fd->ranges;
  if (fd->size != fd->base_size || s001.size() != state->text.size()) {
    return with_reason(analyze_series(std::move(s001)), core::FullAnalysisReason::SizeChanged);
  }
  if (ranges.front().offset <= state->header_end) {
    return with_reason(analyze_series(std::move(s001)),
                       core::FullAnalysisReason::OutsideDataRegion);
  }
  const std::string_view text = util::char_view(s001);

  // Every byte before the first dirty one is golden, so the golden line
  // holding it starts a line in the faulty text too.  Every byte from the
  // first '\n' at or after the end of the last range is golden as well, so
  // that '\n' ends a golden line and the lines after it parse as they did.
  const std::vector<ScalarLine>& lines = state->lines;
  const auto line_of = [&lines](std::size_t offset) {
    const auto it = std::upper_bound(
        lines.begin(), lines.end(), offset,
        [](std::size_t o, const ScalarLine& line) { return o < line.start; });
    return static_cast<std::size_t>(it - lines.begin()) - 1;
  };
  const std::size_t first = line_of(ranges.front().offset);
  const std::size_t resync = text.find('\n', ranges.back().end());
  const std::size_t stop = resync == std::string_view::npos ? text.size() : resync + 1;
  const std::size_t suffix = resync == std::string_view::npos ? lines.size() : line_of(resync) + 1;

  const ScalarSeries& gold = state->series;
  const std::size_t suffix_energies =
      suffix < lines.size() ? lines[suffix].energies_before : gold.energies.size();
  const std::uint64_t suffix_skipped =
      suffix < lines.size() ? lines[suffix].skipped_before : gold.rows_skipped;
  ScalarSeries spliced;
  spliced.energies.reserve(gold.energies.size());
  spliced.energies.assign(gold.energies.begin(),
                          gold.energies.begin() +
                              static_cast<std::ptrdiff_t>(lines[first].energies_before));
  spliced.rows_skipped = lines[first].skipped_before;
  parse_scalar_lines(text, lines[first].start, stop, spliced);
  spliced.energies.insert(spliced.energies.end(),
                          gold.energies.begin() + static_cast<std::ptrdiff_t>(suffix_energies),
                          gold.energies.end());
  spliced.rows_skipped += gold.rows_skipped - suffix_skipped;

  // The golden series has no NUL byte, so a NUL can only sit in a range.
  bool nul = false;
  for (const vfs::ByteRange& r : ranges) {
    nul = nul || std::memchr(text.data() + r.offset, '\0', r.length) != nullptr;
  }

  return analysis_from(summarize_scalar_series(spliced, nul, config_.qmca), std::move(s001));
}

core::Outcome QmcApp::classify(const core::AnalysisResult& /*golden*/,
                               const core::AnalysisResult& faulty) const {
  // Binary garbage in the text series is corruption the tool chain reports.
  if (faulty.metric("nul_detected") != 0.0) return core::Outcome::Detected;
  const double energy = faulty.metric("energy");
  if (std::isfinite(energy) && energy >= config_.sdc_window_low &&
      energy <= config_.sdc_window_high) {
    return core::Outcome::Sdc;
  }
  return core::Outcome::Detected;
}

namespace {

constexpr std::string_view kStateTag = "qmc-state/1";

void write_rows(util::ByteWriter& w, const std::vector<ScalarRow>& rows) {
  w.u64(rows.size());
  for (const ScalarRow& row : rows) {
    w.u64(row.index);
    w.f64(row.local_energy);
    w.f64(row.variance);
    w.f64(row.weight);
  }
}

/// Validates the stored count against the configured series length BEFORE
/// reserving — an untrusted blob must fail cheaply, not via a huge reserve.
std::vector<ScalarRow> read_rows(util::ByteReader& r, std::uint64_t expected) {
  const std::uint64_t n = r.u64();
  if (n != expected) {
    throw std::invalid_argument("scalar series length mismatch");
  }
  std::vector<ScalarRow> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ScalarRow row;
    row.index = r.u64();
    row.local_energy = r.f64();
    row.variance = r.f64();
    row.weight = r.f64();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

std::string QmcApp::state_fingerprint() const {
  const QmcAppConfig& c = config_;
  return "qmc/1;psi=" + util::hexf(c.psi.z) + "," + util::hexf(c.psi.a) + "," + util::hexf(c.psi.b) +
         ";vmc=" + std::to_string(c.vmc.walkers) + "," + std::to_string(c.vmc.steps) +
         "," + std::to_string(c.vmc.warmup_steps) + "," + util::hexf(c.vmc.step_sigma) +
         ";dmc=" + std::to_string(c.dmc.target_walkers) + "," +
         std::to_string(c.dmc.steps) + "," + std::to_string(c.dmc.warmup_steps) + "," +
         util::hexf(c.dmc.tau) + "," + util::hexf(c.dmc.feedback) + "," +
         std::to_string(c.dmc.max_population_factor) +
         ";flush=" + std::to_string(c.io.flush_bytes) +
         ";equil=" + std::to_string(c.qmca.equilibration_rows) + ";prefix=" + util::fpstr(c.prefix) +
         ";sdc=" + util::hexf(c.sdc_window_low) + "," + util::hexf(c.sdc_window_high);
}

util::Bytes QmcApp::serialize_state(std::uint64_t app_seed) const {
  const std::shared_ptr<const Trace> t = trace(app_seed);
  util::Bytes out;
  util::ByteWriter w(out);
  w.str(kStateTag);
  w.u64(app_seed);
  write_rows(w, t->vmc_rows);
  write_rows(w, t->dmc_rows);
  w.f64(t->dmc_mean_energy);
  return out;
}

bool QmcApp::restore_state(std::uint64_t app_seed, util::ByteSpan state) const {
  {
    // Two checkpoint entries of one (app, seed) carry identical blobs;
    // decoding the second would only overwrite an identical cache.
    std::lock_guard lock(cache_mutex_);
    if (cached_trace_ && cached_seed_ == app_seed) return true;
  }
  try {
    util::ByteReader r(state);
    if (r.str() != kStateTag) return false;
    if (r.u64() != app_seed) return false;
    auto t = std::make_shared<Trace>();
    t->vmc_rows = read_rows(r, config_.vmc.steps);
    t->dmc_rows = read_rows(r, config_.dmc.steps);
    t->dmc_mean_energy = r.f64();
    r.expect_end();
    std::lock_guard lock(cache_mutex_);
    cached_trace_ = std::move(t);
    cached_seed_ = app_seed;
    return true;
  } catch (const std::exception&) {
    return false;  // truncated or foreign blob: recompute lazily instead
  }
}

}  // namespace ffis::qmc
