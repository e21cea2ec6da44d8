// mmsoc_bench --selftest: checks the measurement rules on synthetic
// inputs, without running a workload.
#include <cmath>
#include <cstdio>

#include "harness.h"

namespace mmsoc::bench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void percentile_rule() {
  expect(samples_beyond(0.99, 1000) == 10, "p99 of 1000 samples has 10 beyond");
  expect(samples_beyond(0.99, 999) < kMinBeyond, "p99 of 999 samples has fewer than 10 beyond");

  std::vector<double> v = ramp(1000);
  Percentile p = percentile(v, 0.99);
  expect(p.ok && p.q == 0.99 && p.value == 990.0 && p.samples == 1000,
         "p99 is reported at n = 1000");

  v = ramp(999);
  p = percentile(v, 0.99);
  expect(p.ok && p.q < 0.99 && samples_beyond(p.q, 999) == kMinBeyond &&
             p.value == 989.0,
         "below n = 1000 the tail falls back to the highest supported percentile");

  v = ramp(21);
  p = percentile(v, 0.50);
  expect(p.ok && p.q == 0.50 && p.value == 11.0, "p50 needs 10 samples beyond it");

  v = ramp(10);
  p = percentile(v, 0.50);
  expect(!p.ok, "ten samples support no percentile");
}

void schedules() {
  const std::vector<double> a = poisson_arrivals(7, 10.0, 12.0);
  // Burn CPU between the two calls: a slower host must see the same load.
  volatile double burn = 0.0;
  const std::uint64_t until = now_ns() + 20'000'000;
  while (now_ns() < until) burn = burn + 1.0;
  const std::vector<double> b = poisson_arrivals(7, 10.0, 12.0);
  expect(a == b, "Poisson arrivals are identical for a seed");
  expect(a != poisson_arrivals(8, 10.0, 12.0), "another seed gives other arrivals");
  bool in_range = a.size() == 120;
  for (std::size_t i = 0; i < a.size(); ++i) {
    in_range = in_range && a[i] >= 0.0 && a[i] < 12.0 && (i == 0 || a[i - 1] <= a[i]);
  }
  expect(in_range, "Poisson arrivals: rate x duration sorted instants inside the window");

  const std::vector<double> s = stagger_starts(4, 0.04);
  expect(s == stagger_starts(4, 0.04) && s.size() == 4 && s[0] == 0.0 &&
             std::abs(s[3] - 0.03) < 1e-12,
         "stream k of S starts k/S of a frame interval in");
}

void lateness_from_due_time() {
  // A stream scheduled at 0 s but submitted 50 ms late shows frame i at
  // 150 ms + i intervals: every frame is 150 ms late, not 100.
  const std::uint64_t rung = 1'000'000'000;
  const double interval = 0.04;
  std::vector<std::uint64_t> shown;
  for (int i = 0; i < 30; ++i) {
    shown.push_back(rung + static_cast<std::uint64_t>((0.150 + i * interval) * 1e9));
  }
  const RungFrames r = tally_frames({stream_frames(0.0, shown, rung)}, interval, 250.0);
  bool all150 = r.lateness_ms.size() == 30;
  for (const double l : r.lateness_ms) all150 = all150 && std::abs(l - 150.0) < 1e-6;
  expect(all150, "lateness is measured from the due time, not the send time");
  expect(r.late == 0 && r.due == 30, "frames within the limit are not late");
}

void cutoff_frames_are_late() {
  // 240 frames due; the harness cut the stream off after 100 were shown.
  const std::uint64_t rung = 5'000'000'000;
  std::vector<std::uint64_t> shown(240, 0);
  for (int i = 0; i < 100; ++i) {
    shown[i] = rung + static_cast<std::uint64_t>((0.1 + i / 30.0) * 1e9);
  }
  const RungFrames r = tally_frames({stream_frames(0.0, shown, rung)}, 1.0 / 30, 250.0);
  expect(r.due == 240 && r.displayed == 100 && r.late == 140,
         "frames never shown before the cut-off count as late");
  Tally t;
  t.add(JobEnd::kCutoff, Digest{}, Digest{1, 2, 3, 4});
  expect(t.attempted == 1 && t.failed == 0, "a cut-off stream is attempted, not failed");
}

void digest_mismatch_fails() {
  const Digest ref{0xabc, 0xdef, 16, 16};
  Tally t;
  t.add(JobEnd::kCompleted, ref, ref);
  expect(t.failed_share() == 0.0, "a matching digest passes");
  Digest bad = ref;
  bad.crc_a ^= 1;
  t.add(JobEnd::kCompleted, bad, ref);
  expect(t.failed_share() == 0.5, "a digest mismatch raises failed_share");
  Digest short_job = ref;
  short_job.units_a = 15;
  t.add(JobEnd::kCompleted, short_job, ref);
  expect(t.failed == 2, "a unit-count mismatch fails the job");
  t.add(JobEnd::kRejected, Digest{}, ref);
  expect(t.failed == 3, "an admission refusal fails the job");
}

}  // namespace

int run_selftest() {
  percentile_rule();
  schedules();
  lateness_from_due_time();
  cutoff_frames_are_late();
  digest_mismatch_fails();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace mmsoc::bench
