#include "telemetry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace mmsoc {

namespace {

// Timeline events the collector retains for trace_json(); past this, drained
// events still feed the derived metrics and count as dropped().
constexpr std::size_t kMaxTraceEvents = 1 << 20;

// now_ns_fast() calibration: ns = base_ns + (tsc - base_tsc) * slope. The
// base pair is fixed at process-wide init; only the slope is refreshed
// (each collector drain recomputes it from the base pair and a fresh
// read), so a single release-store publishes a consistent mapping and the
// absolute conversion error stays pinned to the calibration reads'
// jitter instead of growing with uptime. slope == 0 means "TSC unusable,
// fall back to the steady clock".
struct TscCalibration {
  std::uint64_t base_tsc = 0;
  std::uint64_t base_ns = 0;
  std::atomic<double> slope{0.0};
};
TscCalibration g_tsc;
std::once_flag g_tsc_once;

#if defined(__x86_64__) || defined(__i386__)
bool has_invariant_tsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx)) return false;
  return (edx & (1u << 8)) != 0;
}
#endif

void tsc_calibrate_once() {
#if defined(__x86_64__) || defined(__i386__)
  if (!has_invariant_tsc()) return;
  const std::uint64_t tsc0 = __rdtsc();
  const std::uint64_t ns0 = Telemetry::now_ns();
  // ~2 ms window: slope good to ~1e-4 immediately; collector re-anchors
  // tighten it further as the baseline ages.
  while (Telemetry::now_ns() - ns0 < 2'000'000) {
  }
  const std::uint64_t tsc1 = __rdtsc();
  const std::uint64_t ns1 = Telemetry::now_ns();
  if (tsc1 <= tsc0 || ns1 <= ns0) return;
  const double slope = static_cast<double>(ns1 - ns0) /
                       static_cast<double>(tsc1 - tsc0);
  // Plausibility gate (0.01..100 ns/tick spans any real TSC frequency);
  // a virtualised TSC that fails it just keeps the steady-clock path.
  if (!(slope > 0.01 && slope < 100.0)) return;
  g_tsc.base_tsc = tsc0;
  g_tsc.base_ns = ns0;
  g_tsc.slope.store(slope, std::memory_order_release);
#endif
}

// Collector-side refresh: recompute the slope from the fixed base pair
// and a fresh (tsc, steady) read. As the elapsed window grows the slope's
// relative error decays, keeping the absolute mapping error at the
// current time bounded by the pair-read jitter.
void tsc_reanchor() {
#if defined(__x86_64__) || defined(__i386__)
  if (g_tsc.slope.load(std::memory_order_acquire) == 0.0) return;
  const std::uint64_t tsc = __rdtsc();
  const std::uint64_t ns = Telemetry::now_ns();
  if (tsc <= g_tsc.base_tsc || ns <= g_tsc.base_ns) return;
  const double slope = static_cast<double>(ns - g_tsc.base_ns) /
                       static_cast<double>(tsc - g_tsc.base_tsc);
  if (slope > 0.01 && slope < 100.0) {
    g_tsc.slope.store(slope, std::memory_order_release);
  }
#endif
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Microseconds with ns precision, as chrome://tracing expects in "ts"/"dur".
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

EventRing::EventRing(std::size_t capacity_events)
    : capacity_(round_up_pow2(capacity_events < 2 ? 2 : capacity_events)),
      mask_(capacity_ - 1),
      slots_(new std::atomic<std::uint64_t>[capacity_ * kWords]()) {}

void EventRing::emit(const TelemetryEvent& ev) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= capacity_) {
    // Full: claim-drop a *chunk* of the oldest unread events, not one —
    // a saturated producer then takes the plain-store path for the next
    // kDropChunk-1 emits instead of paying this CAS every time (the
    // difference between 3% and 5% hot-path overhead when the collector
    // can't keep up). The only other writer of head_ is the consumer's
    // publish CAS; whichever side wins, head has advanced and slots are
    // free. Losing the race means the consumer just drained what we were
    // about to drop — nothing is lost then.
    const std::uint64_t chunk =
        capacity_ < kDropChunk ? capacity_ : std::uint64_t{kDropChunk};
    if (head_.compare_exchange_strong(head, head + chunk,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      dropped_.fetch_add(chunk, std::memory_order_relaxed);
    }
  }
  std::atomic<std::uint64_t>* slot = &slots_[(tail & mask_) * kWords];
  slot[0].store(ev.word0, std::memory_order_relaxed);
  slot[1].store(ev.begin_ns, std::memory_order_relaxed);
  slot[2].store(ev.end_ns, std::memory_order_relaxed);
  slot[3].store(ev.arg0, std::memory_order_relaxed);
  slot[4].store(ev.arg1, std::memory_order_relaxed);
  tail_.store(tail + 1, std::memory_order_release);
}

bool EventRing::try_pop(TelemetryEvent& out) {
  for (;;) {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    const std::atomic<std::uint64_t>* slot = &slots_[(head & mask_) * kWords];
    TelemetryEvent ev;
    ev.word0 = slot[0].load(std::memory_order_relaxed);
    ev.begin_ns = slot[1].load(std::memory_order_relaxed);
    ev.end_ns = slot[2].load(std::memory_order_relaxed);
    ev.arg0 = slot[3].load(std::memory_order_relaxed);
    ev.arg1 = slot[4].load(std::memory_order_relaxed);
    // Publish the read. Failure means the producer lapped us and claim-dropped
    // this very slot mid-copy; the copy may be torn, so discard and retry.
    if (head_.compare_exchange_strong(head, head + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      out = ev;
      return true;
    }
  }
}

std::size_t EventRing::size() const {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
}

struct Telemetry::Impl {
  struct Track {
    std::string name;
    std::unique_ptr<EventRing> ring;
    Telemetry::DrainFn on_drain;
  };
  struct Retained {
    std::uint32_t track = 0;
    TelemetryEvent ev;
  };

  TelemetryOptions opts;

  mutable std::mutex mu;  // tracks / intern table / retained timeline
  std::vector<std::unique_ptr<Track>> tracks;
  std::vector<std::string> names;  // intern table; names[0] == ""
  std::map<std::string, std::uint16_t> name_ids;
  std::vector<Retained> retained;
  std::uint64_t retained_overflow = 0;

  std::thread collector;
  std::condition_variable cv;
  std::mutex cv_mu;
  bool stop = false;

  // Watchdog registry. Guarded by its own mutex (NOT `mu`): callbacks run
  // with wd_mu held and may take component locks (e.g. the engine's session
  // mutex) that are themselves held while calling into Telemetry — keeping
  // the registries separate keeps the lock graph acyclic. Holding wd_mu
  // across the invocation is what lets remove_watchdog() fence out
  // in-flight calls before the registrant dies.
  std::mutex wd_mu;
  std::map<std::uint64_t, Telemetry::WatchdogFn> watchdogs;
  std::uint64_t next_watchdog_id = 1;

  void drain_locked() {
    TelemetryEvent ev;
    for (std::uint32_t t = 0; t < tracks.size(); ++t) {
      Track& track = *tracks[t];
      while (track.ring->try_pop(ev)) {
        // Derived metrics first: they must see every drained event even
        // once the retained timeline is full.
        if (track.on_drain) track.on_drain(ev);
        if (retained.size() >= kMaxTraceEvents) {
          ++retained_overflow;
          continue;  // keep draining so rings stay fresh for metrics/dropped()
        }
        retained.push_back(Retained{t, ev});
      }
    }
  }
};

Telemetry::Telemetry(TelemetryOptions opts) : impl_(new Impl) {
  std::call_once(g_tsc_once, tsc_calibrate_once);
  impl_->opts = opts;
  impl_->names.push_back("");  // id 0 = unnamed
  if (opts.collect_period_ms > 0) {
    impl_->collector = std::thread([this] {
      Impl& im = *impl_;
      std::unique_lock<std::mutex> lk(im.cv_mu);
      while (!im.stop) {
        im.cv.wait_for(lk, std::chrono::milliseconds(im.opts.collect_period_ms));
        if (im.stop) break;
        lk.unlock();
        flush();
        // Watchdogs ride the drain cadence: each callback sees a world in
        // which everything emitted before this period is already drained.
        poll_watchdogs();
        tsc_reanchor();
        lk.lock();
      }
    });
  }
}

Telemetry::~Telemetry() {
  if (impl_->collector.joinable()) {
    {
      std::lock_guard<std::mutex> lk(impl_->cv_mu);
      impl_->stop = true;
    }
    impl_->cv.notify_all();
    impl_->collector.join();
  }
}

EventRing* Telemetry::register_track(const std::string& name, DrainFn on_drain) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& t : impl_->tracks) {
    if (t->name == name) {
      t->on_drain = std::move(on_drain);
      return t->ring.get();
    }
  }
  impl_->tracks.push_back(std::make_unique<Impl::Track>());
  Impl::Track& t = *impl_->tracks.back();
  t.name = name;
  t.ring = std::make_unique<EventRing>(impl_->opts.ring_capacity);
  t.on_drain = std::move(on_drain);
  return t.ring.get();
}

void Telemetry::reset_drain_callback(EventRing* ring) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& t : impl_->tracks) {
    if (t->ring.get() != ring) continue;
    // Route what's still buffered through the callback before it dies, so
    // the component's metrics are complete when its destructor returns.
    impl_->drain_locked();
    t->on_drain = nullptr;
    return;
  }
}

std::uint64_t Telemetry::add_watchdog(WatchdogFn fn) {
  std::lock_guard<std::mutex> lock(impl_->wd_mu);
  const std::uint64_t id = impl_->next_watchdog_id++;
  impl_->watchdogs.emplace(id, std::move(fn));
  return id;
}

void Telemetry::remove_watchdog(std::uint64_t id) {
  // Taking wd_mu waits for any in-flight poll_watchdogs() pass to finish,
  // so after this returns the callback can never run again.
  std::lock_guard<std::mutex> lock(impl_->wd_mu);
  impl_->watchdogs.erase(id);
}

void Telemetry::poll_watchdogs() {
  std::lock_guard<std::mutex> lock(impl_->wd_mu);
  for (auto& [id, fn] : impl_->watchdogs) {
    if (fn) fn();
  }
}

const TelemetryOptions& Telemetry::options() const { return impl_->opts; }

std::uint16_t Telemetry::intern(const std::string& name) {
  if (name.empty()) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->name_ids.find(name);
  if (it != impl_->name_ids.end()) return it->second;
  if (impl_->names.size() > 0xffff) return 0;  // table full: fall back to unnamed
  const std::uint16_t id = static_cast<std::uint16_t>(impl_->names.size());
  impl_->names.push_back(name);
  impl_->name_ids.emplace(name, id);
  return id;
}

std::string Telemetry::name_of(std::uint16_t id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return id < impl_->names.size() ? impl_->names[id] : std::string();
}

void Telemetry::flush() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->drain_locked();
}

std::uint64_t Telemetry::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::uint64_t total = impl_->retained_overflow;
  for (const auto& t : impl_->tracks) total += t->ring->dropped();
  return total;
}

std::size_t Telemetry::retained_events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->retained.size();
}

std::uint64_t Telemetry::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Telemetry::now_ns_fast() {
#if defined(__x86_64__) || defined(__i386__)
  // acquire pairs with the calibration's release-store so the (plain)
  // base fields are visible; free on x86.
  const double slope = g_tsc.slope.load(std::memory_order_acquire);
  if (slope != 0.0) {
    const std::uint64_t dt = __rdtsc() - g_tsc.base_tsc;
    return g_tsc.base_ns +
           static_cast<std::uint64_t>(static_cast<double>(dt) * slope);
  }
#endif
  return now_ns();
}

std::string Telemetry::trace_json() {
  flush();
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out;
  out.reserve(impl_->retained.size() * 128 + 1024);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // One named thread per track so Perfetto shows "engine0.worker1" etc.
  for (std::size_t t = 0; t < impl_->tracks.size(); ++t) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(t + 1);
    out += ",\"args\":{\"name\":\"";
    append_json_escaped(out, impl_->tracks[t]->name);
    out += "\"}}";
  }
  auto kind_label = [](EventKind k) -> const char* {
    switch (k) {
      case EventKind::kFiringBatch: return "batch";
      case EventKind::kSteal: return "steal";
      case EventKind::kPark: return "park";
      case EventKind::kIoStall: return "io-stall";
      case EventKind::kIoJob: return "io-job";
      case EventKind::kSessionStart: return "session-start";
      case EventKind::kSessionEnd: return "session-end";
      case EventKind::kAdmit: return "admit";
      case EventKind::kReject: return "reject";
      case EventKind::kUnitFlow: return "unit-flow";
      case EventKind::kUnitComplete: return "unit-complete";
      default: return "event";
    }
  };
  // One flow chain per sampled unit: the flow id glues the "s" (source
  // stage), "t" (interior stages), and "f" (sink stage) points together;
  // each point's ts lands inside the firing-batch slice that executed the
  // unit on that track, which is the slice Perfetto attaches the arrow to.
  char idbuf[32];
  auto flow_id = [&](const TelemetryEvent& ev) {
    std::snprintf(idbuf, sizeof(idbuf), "\"0x%llx\"",
                  static_cast<unsigned long long>(
                      (static_cast<std::uint64_t>(ev.session()) << 32) |
                      (ev.arg0 & 0xffffffffu)));
    return idbuf;
  };
  for (const Impl::Retained& r : impl_->retained) {
    const TelemetryEvent& ev = r.ev;
    const EventKind kind = ev.kind();
    if (kind == EventKind::kUnitFlow || kind == EventKind::kUnitComplete) {
      const std::uint16_t nid0 = ev.name_id();
      const std::string stage =
          nid0 < impl_->names.size() ? impl_->names[nid0] : std::string();
      const bool source =
          kind == EventKind::kUnitFlow && (ev.arg1 & 1u) != 0;
      const char* ph = kind == EventKind::kUnitComplete ? "f"
                       : source                         ? "s"
                                                        : "t";
      comma();
      out += "{\"name\":\"unit\",\"cat\":\"unit\",\"ph\":\"";
      out += ph;
      out += "\"";
      if (kind == EventKind::kUnitComplete) out += ",\"bp\":\"e\"";
      out += ",\"id\":";
      out += flow_id(ev);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(r.track + 1);
      out += ",\"ts\":";
      append_us(out, ev.end_ns);
      out += ",\"args\":{\"unit\":";
      out += std::to_string(ev.arg0);
      out += ",\"session\":";
      out += std::to_string(ev.session());
      out += ",\"stage\":\"";
      append_json_escaped(out, stage);
      if (kind == EventKind::kUnitComplete) {
        out += "\",\"latency_ns\":";
        out += std::to_string(ev.arg1);
      } else {
        out += "\",\"service_ns\":";
        out += std::to_string(ev.arg1 >> 1);
        out += ",\"wait_ns\":";
        const std::uint64_t span =
            ev.end_ns >= ev.begin_ns ? ev.end_ns - ev.begin_ns : 0;
        const std::uint64_t service = ev.arg1 >> 1;
        out += std::to_string(span >= service ? span - service : 0);
      }
      out += "}}";
      continue;
    }
    const std::uint16_t nid = ev.name_id();
    const std::string& name =
        nid < impl_->names.size() && !impl_->names[nid].empty()
            ? impl_->names[nid]
            : std::string(kind_label(kind));
    const bool slice = kind == EventKind::kFiringBatch ||
                       kind == EventKind::kPark || kind == EventKind::kIoJob;
    comma();
    out += "{\"name\":\"";
    append_json_escaped(out, name);
    out += "\",\"cat\":\"";
    out += kind_label(kind);
    out += "\",\"ph\":\"";
    out += slice ? "X" : "i";
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(r.track + 1);
    out += ",\"ts\":";
    append_us(out, ev.begin_ns);
    if (slice) {
      out += ",\"dur\":";
      append_us(out, ev.end_ns >= ev.begin_ns ? ev.end_ns - ev.begin_ns : 0);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{";
    if (ev.session() != 0) {
      out += "\"session\":";
      out += std::to_string(ev.session());
      out += ",";
    }
    switch (kind) {
      case EventKind::kFiringBatch:
        out += "\"firings\":" + std::to_string(ev.arg0);
        break;
      case EventKind::kSteal:
        out += "\"victim\":" + std::to_string(ev.arg0);
        break;
      case EventKind::kIoStall:
        out += "\"stall_ns\":" + std::to_string(ev.arg0);
        break;
      case EventKind::kSessionEnd:
        out += "\"firings\":" + std::to_string(ev.arg0) +
               ",\"outcome\":" + std::to_string(ev.arg1);
        break;
      case EventKind::kAdmit:
      case EventKind::kReject:
        out += "\"shard\":" + std::to_string(ev.arg0);
        break;
      default:
        out += "\"a\":" + std::to_string(ev.arg0);
        break;
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Telemetry::write_trace(const std::string& path) {
  const std::string json = trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (n != json.size()) std::fclose(f);
  return ok;
}

}  // namespace mmsoc
