#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/rng.h"

namespace mmsoc::bench {

std::uint64_t g_process_start_ns = 0;

void sleep_until_ns(std::uint64_t t_ns) {
  const std::uint64_t now = now_ns();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr first;
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!first) first = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(n, kSetupThreads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first) std::rethrow_exception(first);
}

std::uint64_t samples_beyond(double q, std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at rank 990.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return n - rank;
}

Percentile percentile(std::vector<double>& v, double q_target) {
  Percentile p;
  p.samples = v.size();
  if (v.size() <= kMinBeyond) return p;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::uint64_t>(v.size());
  p.q = samples_beyond(q_target, n) >= kMinBeyond
            ? q_target
            : static_cast<double>(n - kMinBeyond) / static_cast<double>(n);
  const std::uint64_t rank = n - samples_beyond(p.q, n);
  p.value = v[rank - 1];
  p.ok = true;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate_hz,
                                     double duration_s) {
  const auto count =
      static_cast<std::size_t>(std::llround(rate_hz * duration_s));
  common::Rng rng(seed ^ 0xA5517A1ull);
  std::vector<double> at(count);
  for (double& t : at) t = rng.next_double() * duration_s;
  std::sort(at.begin(), at.end());
  return at;
}

std::vector<double> stagger_starts(std::size_t streams, double interval_s) {
  std::vector<double> at(streams);
  for (std::size_t k = 0; k < streams; ++k) {
    at[k] = static_cast<double>(k) * interval_s / static_cast<double>(streams);
  }
  return at;
}

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t job_seed(std::uint64_t run_seed, std::uint64_t index) noexcept {
  return mix64(mix64(run_seed) ^ index);
}

void Tally::add(JobEnd end, const Digest& got, const Digest& reference) {
  ++attempted;
  const bool bad = end == JobEnd::kFailed || end == JobEnd::kRejected ||
                   (end == JobEnd::kCompleted && !(got == reference));
  if (bad) ++failed;
}

RungFrames tally_frames(const std::vector<StreamFrames>& streams,
                        double interval_s, double late_limit_ms) {
  RungFrames r;
  for (const StreamFrames& s : streams) {
    for (std::size_t i = 0; i < s.display_end_s.size(); ++i) {
      ++r.due;
      const double shown = s.display_end_s[i];
      if (shown < 0.0) {
        ++r.late;
        continue;
      }
      const double due = s.start_s + static_cast<double>(i) * interval_s;
      const double late_ms = (shown - due) * 1e3;
      ++r.displayed;
      r.lateness_ms.push_back(late_ms);
      if (late_ms > late_limit_ms) ++r.late;
    }
  }
  return r;
}

StreamFrames stream_frames(double scheduled_start_s,
                           const std::vector<std::uint64_t>& display_end_ns,
                           std::uint64_t rung_start_ns) {
  StreamFrames s;
  s.start_s = scheduled_start_s;
  s.display_end_s.reserve(display_end_ns.size());
  for (const std::uint64_t e : display_end_ns) {
    s.display_end_s.push_back(e != 0 ? seconds_between(rung_start_ns, e) : -1.0);
  }
  return s;
}

void add_metric(Metrics& m, std::string name, double value, std::string unit,
                std::uint64_t samples) {
  m.push_back(Metric{std::move(name), value, std::move(unit), samples, -1.0});
}

void add_percentile(Metrics& m, std::string name, const Percentile& p,
                    double scale, std::string unit) {
  m.push_back(Metric{std::move(name),
                     p.ok ? p.value * scale : std::nan(""), std::move(unit),
                     p.samples, p.q});
}

JsonObject& JsonObject::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::num(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_metrics(const Metrics& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    JsonObject o;
    o.num("value", m.value).str("unit", m.unit);
    if (m.samples > 0) o.num("samples", m.samples);
    if (m.quantile >= 0.0) o.num("quantile", m.quantile);
    out.raw(m.name, o.render());
  }
  return out.render();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace mmsoc::bench
