#include "core/deploy.h"

#include <cstdio>

namespace mmsoc::core {

using mpsoc::MapperKind;
using mpsoc::Platform;
using mpsoc::TaskGraph;

DeploymentReport evaluate(const TaskGraph& graph, const Platform& platform,
                          MapperKind mapper, double target_hz) {
  DeploymentReport r;
  r.application = graph.name();
  r.platform = platform.name;
  r.mapper = mapper;
  r.target_hz = target_hz;
  r.area_mm2 = platform.total_area_mm2();

  const auto result = mpsoc::map_graph(graph, platform, mapper);
  if (!result.schedule.feasible) return r;
  r.feasible = true;
  r.latency_ms = result.schedule.makespan_s * 1e3;
  r.throughput_hz = result.schedule.throughput_per_s();
  r.meets_realtime = r.throughput_hz >= target_hz;
  r.realtime_margin = target_hz > 0 ? r.throughput_hz / target_hz : 0.0;
  r.energy_per_iteration_mj = result.schedule.energy_j * 1e3;
  r.average_power_w = result.schedule.average_power_w();
  r.mean_utilization = result.schedule.mean_utilization();
  return r;
}

SymmetryReport symmetry_study(int width, int height,
                              const video::StageOps& encode_ops) {
  SymmetryReport report;
  const auto enc = video_encoder_graph(width, height, encode_ops);
  const auto dec = video_decoder_graph(width, height, encode_ops);
  report.encoder_ops = enc.total_work();
  report.decoder_ops = dec.total_work();
  report.compute_ratio =
      report.decoder_ops > 0 ? report.encoder_ops / report.decoder_ops : 0.0;

  // Symmetric: both directions on one battery device.
  const auto conference = videoconference_graph(width, height, encode_ops);
  report.symmetric_terminal =
      evaluate(conference, device_platform(DeviceClass::kCellPhone),
               MapperKind::kHeft, realtime_target_hz(DeviceClass::kCellPhone));

  // Asymmetric: heavyweight encoder feeds many lightweight decoders.
  report.headend_encoder =
      evaluate(enc, device_platform(DeviceClass::kBroadcastHeadend),
               MapperKind::kHeft, 30.0);
  report.settop_decoder =
      evaluate(dec, device_platform(DeviceClass::kSetTopBox),
               MapperKind::kHeft, realtime_target_hz(DeviceClass::kSetTopBox));

  // Receiver silicon saved by not encoding: compare the set-top to the
  // recorder-class die that carries encode hardware too.
  const double decoder_only_area =
      device_platform(DeviceClass::kSetTopBox).total_area_mm2();
  const double with_encoder_area =
      device_platform(DeviceClass::kVideoRecorder).total_area_mm2();
  report.receiver_area_ratio = decoder_only_area / with_encoder_area;
  return report;
}

std::vector<DeploymentReport> device_study(
    int width, int height, const video::StageOps& encode_ops,
    const audio::AudioStageOps& audio_ops) {
  std::vector<DeploymentReport> out;
  const auto devices = consumer_devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const auto device = devices[i];
    const auto graph = device_workload(width, height, encode_ops, audio_ops,
                                       static_cast<std::uint8_t>(i));
    out.push_back(evaluate(graph, device_platform(device), MapperKind::kHeft,
                           realtime_target_hz(device)));
  }
  return out;
}

std::vector<DvfsPoint> dvfs_sweep(const TaskGraph& graph,
                                  const Platform& platform,
                                  MapperKind mapper, double target_hz,
                                  std::span<const double> factors) {
  std::vector<DvfsPoint> out;
  out.reserve(factors.size());
  for (const double f : factors) {
    DvfsPoint p;
    p.clock_factor = f;
    p.report = evaluate(graph, mpsoc::scaled_platform(platform, f), mapper,
                        target_hz);
    out.push_back(std::move(p));
  }
  return out;
}

DvfsPoint pick_operating_point(std::span<const DvfsPoint> sweep) {
  const DvfsPoint* best = nullptr;
  const DvfsPoint* fastest = nullptr;
  for (const auto& p : sweep) {
    if (!p.report.feasible) continue;
    if (fastest == nullptr ||
        p.report.throughput_hz > fastest->report.throughput_hz) {
      fastest = &p;
    }
    if (!p.report.meets_realtime) continue;
    if (best == nullptr ||
        p.report.average_power_w < best->report.average_power_w) {
      best = &p;
    }
  }
  if (best != nullptr) return *best;
  if (fastest != nullptr) return *fastest;
  return sweep.empty() ? DvfsPoint{} : sweep.front();
}

std::string report_header() {
  return "application              platform           mapper      fps      "
         "target  rt  margin  lat_ms  mJ/iter  avgW   util  area_mm2";
}

std::string report_row(const DeploymentReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-24s %-18s %-10s %8.2f %8.2f  %s  %6.2f %7.3f %8.3f %6.3f %5.2f %9.1f",
                r.application.c_str(), r.platform.c_str(),
                mpsoc::to_string(r.mapper), r.throughput_hz, r.target_hz,
                r.meets_realtime ? "Y" : "N", r.realtime_margin, r.latency_ms,
                r.energy_per_iteration_mj, r.average_power_w,
                r.mean_utilization, r.area_mm2);
  return std::string(buf);
}

}  // namespace mmsoc::core
