// Deployment evaluation: application graph x device platform x mapper ->
// the cost/performance/power verdicts §2 frames for every product class.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/appgraphs.h"
#include "core/profiles.h"
#include "mpsoc/mapping.h"

namespace mmsoc::core {

struct DeploymentReport {
  std::string application;
  std::string platform;
  mpsoc::MapperKind mapper = mpsoc::MapperKind::kHeft;
  bool feasible = false;
  double latency_ms = 0.0;          ///< one-iteration makespan
  double throughput_hz = 0.0;       ///< pipelined iterations/s
  double target_hz = 0.0;
  bool meets_realtime = false;
  double realtime_margin = 0.0;     ///< throughput / target
  double energy_per_iteration_mj = 0.0;
  double average_power_w = 0.0;
  double mean_utilization = 0.0;
  double area_mm2 = 0.0;
};

/// Map and evaluate one application on one platform.
[[nodiscard]] DeploymentReport evaluate(const mpsoc::TaskGraph& graph,
                                        const mpsoc::Platform& platform,
                                        mpsoc::MapperKind mapper,
                                        double target_hz);

/// The §2 symmetric/asymmetric study.
struct SymmetryReport {
  double encoder_ops = 0.0;
  double decoder_ops = 0.0;
  /// §2's asymmetry, measured: encoder work / decoder work.
  double compute_ratio = 0.0;
  /// Symmetric terminal (encoder+decoder) on the phone platform.
  DeploymentReport symmetric_terminal;
  /// Asymmetric pair: headend encoder + set-top decoder.
  DeploymentReport headend_encoder;
  DeploymentReport settop_decoder;
  /// Receiver-silicon saving of the asymmetric split: set-top area vs a
  /// hypothetical receiver that must also encode.
  double receiver_area_ratio = 0.0;
};

[[nodiscard]] SymmetryReport symmetry_study(int width, int height,
                                            const video::StageOps& encode_ops);

/// One row of the E-DEV table: each device running its primary workload.
[[nodiscard]] std::vector<DeploymentReport> device_study(
    int width, int height, const video::StageOps& encode_ops,
    const audio::AudioStageOps& audio_ops);

/// One point of a DVFS sweep (§2: power-aware operation).
struct DvfsPoint {
  double clock_factor = 1.0;
  DeploymentReport report;
};

/// Evaluate the workload across clock-scaling factors. Useful to find the
/// slowest (lowest-power) operating point that still meets `target_hz`.
[[nodiscard]] std::vector<DvfsPoint> dvfs_sweep(
    const mpsoc::TaskGraph& graph, const mpsoc::Platform& platform,
    mpsoc::MapperKind mapper, double target_hz,
    std::span<const double> factors);

/// The lowest-power point of a sweep that still meets real time, or the
/// fastest point if none does.
[[nodiscard]] DvfsPoint pick_operating_point(std::span<const DvfsPoint> sweep);

/// Render a report as a fixed-width table row (header via report_header).
[[nodiscard]] std::string report_row(const DeploymentReport& r);
[[nodiscard]] std::string report_header();

}  // namespace mmsoc::core
