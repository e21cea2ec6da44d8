#include "runtime/io.h"

#include <algorithm>
#include <chrono>

namespace mmsoc::runtime {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void sleep_us(double us) {
  if (us <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

/// Adapt a legacy infallible reader to the TryReadFn convention:
/// nullopt = clean end of stream (kOutOfRange).
TryReadFn adapt_read_fn(AsyncSource::ReadFn read) {
  return [read = std::move(read)](
             std::uint64_t unit) -> Result<mpsoc::Payload> {
    auto produced = read(unit);
    if (!produced.has_value()) {
      return Result<mpsoc::Payload>(
          Status(StatusCode::kOutOfRange, "end of stream"));
    }
    return Result<mpsoc::Payload>(std::move(*produced));
  };
}

TryWriteFn adapt_write_fn(AsyncSink::WriteFn write) {
  return [write = std::move(write)](std::uint64_t unit,
                                    const mpsoc::Payload& payload) -> Status {
    write(unit, payload);
    return Status::ok();
  };
}

/// Min-heap ordering for the IoContext delayed-job heap: earliest due
/// (ties broken FIFO by seq) at the top of a std::push_heap max-heap.
struct DelayedLater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// IoContext
// ---------------------------------------------------------------------------

IoContext::IoContext(IoContextOptions options)
    : queue_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
  const std::size_t n = std::max<std::size_t>(1, options.threads);
  Counter* m_jobs = nullptr;
  Histogram* h_job_ns = nullptr;
  if (options.telemetry != nullptr) {
    auto& m = options.telemetry->metrics();
    m_jobs = m.counter(options.telemetry_prefix + ".jobs");
    h_job_ns = m.histogram(options.telemetry_prefix + ".job_latency_ns");
    m_retries_ = m.counter(options.telemetry_prefix + ".retries");
    m_failures_ = m.counter(options.telemetry_prefix + ".failures");
    h_retry_backoff_ns_ =
        m.histogram(options.telemetry_prefix + ".retry_backoff_ns");
  }
  timer_thread_ = std::thread([this] { timer_main(); });
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each I/O thread owns its ring (SPSC producer side); registration
    // happens here, before the thread starts, so the pointer capture is
    // race-free.
    EventRing* ring = nullptr;
    if (options.telemetry != nullptr) {
      ring = options.telemetry->register_track(
          options.telemetry_prefix + ".thread" + std::to_string(i));
    }
    threads_.emplace_back([this, ring, m_jobs, h_job_ns] {
      while (auto job = queue_.pop()) {
        const auto t0 = Clock::now();
        (*job)();
        const auto t1 = Clock::now();
        jobs_.fetch_add(1, std::memory_order_relaxed);
        const auto job_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
        busy_ns_.fetch_add(job_ns, std::memory_order_relaxed);
        if (ring != nullptr) {
          // One slice per job on this thread's track, reusing the t0/t1
          // reads the busy accounting already made.
          TelemetryEvent ev;
          ev.word0 = TelemetryEvent::pack0(EventKind::kIoJob, 0, 0);
          ev.begin_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  t0.time_since_epoch())
                  .count());
          ev.end_ns = ev.begin_ns + static_cast<std::uint64_t>(job_ns);
          ring->emit(ev);
          m_jobs->add(1);
          h_job_ns->record(static_cast<std::uint64_t>(job_ns));
        }
      }
    });
  }
}

IoContext::~IoContext() { stop(); }

bool IoContext::post(std::function<void()> job) {
  if (stopped_.load(std::memory_order_acquire)) return false;
  // push() returns false once close() ran — the benign race with stop()
  // resolves to a clean rejection either way.
  return queue_.push(std::move(job));
}

bool IoContext::post_after(std::chrono::nanoseconds delay,
                           std::function<void()> job) {
  if (delay <= std::chrono::nanoseconds::zero()) return post(std::move(job));
  {
    std::lock_guard lock(timer_mu_);
    if (timer_stop_) return false;
    timer_heap_.push_back(
        DelayedJob{Clock::now() + delay, timer_seq_++, std::move(job)});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), DelayedLater{});
  }
  delayed_jobs_.fetch_add(1, std::memory_order_relaxed);
  timer_cv_.notify_one();
  return true;
}

void IoContext::timer_main() {
  std::unique_lock lock(timer_mu_);
  for (;;) {
    if (timer_heap_.empty()) {
      if (timer_stop_) return;
      timer_cv_.wait(lock,
                     [this] { return timer_stop_ || !timer_heap_.empty(); });
      continue;
    }
    // On stop, deadlines are cut short: every pending job flushes into
    // the queue immediately so "a scheduled job always runs" holds.
    if (!timer_stop_ && Clock::now() < timer_heap_.front().due) {
      timer_cv_.wait_until(lock, timer_heap_.front().due);
      continue;
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), DelayedLater{});
    std::function<void()> job = std::move(timer_heap_.back().job);
    timer_heap_.pop_back();
    lock.unlock();
    // May block while the queue is full — fine, this is the timer
    // thread, not an I/O thread. The push lands before queue_.close()
    // because stop() joins this thread first.
    queue_.push(std::move(job));
    lock.lock();
  }
}

void IoContext::stop() {
  std::call_once(stop_once_, [this] {
    stopped_.store(true, std::memory_order_release);
    {
      std::lock_guard lock(timer_mu_);
      timer_stop_ = true;
    }
    timer_cv_.notify_all();
    // Join the timer *before* closing the queue: it flushes every
    // pending delayed job into the backlog, which close() then drains.
    timer_thread_.join();
    queue_.close();  // pop() drains the backlog, then returns nullopt
    for (auto& th : threads_) th.join();
  });
}

IoContext::Stats IoContext::stats() const noexcept {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.delayed_jobs = delayed_jobs_.load(std::memory_order_relaxed);
  s.busy_s =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void IoContext::note_retry(std::uint64_t backoff_ns) {
  if (m_retries_ != nullptr) m_retries_->add(1);
  if (h_retry_backoff_ns_ != nullptr) h_retry_backoff_ns_->record(backoff_ns);
}

void IoContext::note_failure() {
  if (m_failures_ != nullptr) m_failures_->add(1);
}

// ---------------------------------------------------------------------------
// AsyncSource
// ---------------------------------------------------------------------------

namespace {
RetryPolicy no_retry() {
  RetryPolicy p;
  p.max_attempts = 1;  // legacy adapters: first failure is final
  return p;
}
}  // namespace

AsyncSource::AsyncSource(IoContext& io, ReadFn read, std::size_t depth,
                         std::shared_ptr<PayloadPool> pool)
    : AsyncSource(io, adapt_read_fn(std::move(read)), no_retry(), depth,
                  std::move(pool)) {}

AsyncSource::AsyncSource(IoContext& io, TryReadFn read, RetryPolicy retry,
                         std::size_t depth, std::shared_ptr<PayloadPool> pool)
    : io_(&io),
      read_(std::move(read)),
      retry_(retry),
      depth_(std::max<std::size_t>(1, depth)),
      pool_(std::move(pool)) {}

AsyncSource::~AsyncSource() {
  // A pending backoff timer counts as in-flight: the timer-fed job will
  // run (IoContext::stop flushes delayed jobs before closing the queue),
  // so this wait terminates even mid-backoff.
  std::unique_lock lock(mu_);
  idle_.wait(lock, [this] { return !inflight_; });
}

void AsyncSource::set_failure_handler(BoundaryFailureFn on_fail) {
  std::lock_guard lock(mu_);
  on_fail_ = std::move(on_fail);
}

void AsyncSource::set_error_observer(BoundaryErrorFn on_error) {
  std::lock_guard lock(mu_);
  on_error_ = std::move(on_error);
}

common::Status AsyncSource::failure() const {
  std::lock_guard lock(mu_);
  return failed_status_;
}

std::uint64_t AsyncSource::failed_unit() const {
  std::lock_guard lock(mu_);
  return failed_unit_;
}

bool AsyncSource::stuck() const {
  std::lock_guard lock(mu_);
  return stuck_;
}

void AsyncSource::fail(std::unique_lock<std::mutex> lock, std::uint64_t unit,
                       Status status) {
  const bool first = failed_status_.is_ok();
  if (first) {
    failed_status_ = status;
    failed_unit_ = unit;
  }
  retry_armed_ = false;
  // Gate opens permanently (fail closed but drainable): the body
  // delivers empty payloads counted as underruns, the failure handler
  // carries the real story.
  io_failed_.store(true, std::memory_order_release);
  BoundaryFailureFn on_fail = first ? on_fail_ : BoundaryFailureFn{};
  if (first && !on_fail) fail_notify_pending_ = true;
  std::function<void()> waker = waker_;
  lock.unlock();
  if (first) io_->note_failure();
  if (on_fail) on_fail(unit, status);
  if (waker) waker();
  // Only now does the adapter go idle: ~AsyncSource must not return (and
  // let the engine the handler captures be destroyed) while the handler
  // is still running on this thread.
  lock.lock();
  inflight_ = false;
  idle_.notify_all();
}

void AsyncSource::bind(mpsoc::TaskGraph& graph, mpsoc::TaskId task) {
  graph.set_body(task, [this](mpsoc::TaskFiring& f) { body(f); });
  graph.set_gate(task, [this] {
    return gate_count_.load(std::memory_order_acquire) > 0 ||
           io_failed_.load(std::memory_order_acquire);
  });
  graph.set_origin(task, [this](std::uint64_t u) { return origin_ns(u); });
}

void AsyncSource::attach(std::uint64_t total_units,
                         std::function<void()> waker) {
  std::function<void()> kick;
  bool notify_fail = false;
  std::uint64_t funit = 0;
  Status fstatus;
  BoundaryFailureFn on_fail;
  {
    std::lock_guard lock(mu_);
    total_ = total_units;
    waker_ = std::move(waker);
    kick = waker_;
    pump_locked();
    // A failure that predates the handler wiring (context stopped before
    // attach) is delivered here instead of being silently absorbed.
    if (fail_notify_pending_ && on_fail_) {
      fail_notify_pending_ = false;
      notify_fail = true;
      funit = failed_unit_;
      fstatus = failed_status_;
      on_fail = on_fail_;
    }
  }
  if (notify_fail) on_fail(funit, fstatus);
  // Cover the wiring race: a unit that completed before the waker was
  // stored never called it, so nudge the (possibly parked) owner once.
  if (kick) kick();
}

void AsyncSource::pump_locked() {
  if (inflight_ || stuck_ || next_read_ >= total_ ||
      buffered_.size() >= depth_) {
    return;
  }
  if (io_failed_.load(std::memory_order_relaxed)) return;
  inflight_ = true;
  if (!io_->post([this] { drain(); })) {
    // Context stopped under a live session: the gate stays permanently
    // open and the body delivers empty payloads (counted as underruns)
    // so the engine can still drain instead of parking forever — but the
    // stop is a *failure*, recorded here and pushed to the failure
    // handler by body()/attach() (handlers can't run under the lock).
    inflight_ = false;
    if (failed_status_.is_ok()) {
      failed_status_ =
          Status(StatusCode::kUnavailable,
                 "I/O context stopped before reading unit " +
                     std::to_string(next_read_));
      failed_unit_ = next_read_;
      fail_notify_pending_ = true;
      io_->note_failure();  // counter add only — safe under mu_
    }
    io_failed_.store(true, std::memory_order_release);
    idle_.notify_all();
  }
}

void AsyncSource::drain() {
  for (;;) {
    std::uint64_t unit;
    std::uint32_t attempt;
    {
      std::lock_guard lock(mu_);
      if (retry_armed_ && !io_failed_.load(std::memory_order_relaxed)) {
        // A backoff timer delivered us here: resume the retried unit.
        retry_armed_ = false;
        unit = retry_unit_;
        attempt = retry_attempt_;
      } else if (!stuck_ && !io_failed_.load(std::memory_order_relaxed) &&
                 next_read_ < total_ && buffered_.size() < depth_) {
        retry_armed_ = false;
        unit = next_read_++;
        attempt = 0;
      } else {
        retry_armed_ = false;
        inflight_ = false;
        idle_.notify_all();  // ~AsyncSource may be waiting to tear down
        return;
      }
    }
    const auto t0 = Clock::now();
    Result<mpsoc::Payload> produced = read_(unit);
    const auto t1 = Clock::now();
    const Status st = produced.is_ok() ? Status::ok() : produced.status();
    if (st.is_ok() || st.code() == StatusCode::kOutOfRange) {
      std::function<void()> waker;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        mpsoc::Payload payload;
        if (st.is_ok()) {
          payload = std::move(produced.value());
          if (attempt > 0) ++stats_.recovered;
        } else {
          ++stats_.underruns;  // truncated stream: deliver empty, keep going
        }
        ++stats_.units;
        stats_.bytes += payload.size();
        buffered_.push_back(std::move(payload));
        // Frame-journey origin: the unit's clock starts when the device
        // read completed (t1, already measured for io_busy_s).
        origins_.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1.time_since_epoch())
                .count()));
        stats_.max_buffered = std::max(stats_.max_buffered, buffered_.size());
        // Publish the buffer state *before* the waker runs (release pairs
        // with the gate's acquire), so a woken worker always sees the unit.
        gate_count_.store(buffered_.size(), std::memory_order_release);
        waker = waker_;
      }
      if (waker) waker();
      continue;
    }
    // Device error. Three escalation tiers (fault.h convention):
    // stuck -> park (watchdog's problem), transient -> backoff retry,
    // exhaustion/permanent -> session failure.
    if (st.code() == StatusCode::kResourceExhausted) {
      BoundaryErrorFn observer;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        ++stats_.errors;
        stuck_ = true;
        observer = on_error_;
      }
      if (observer) observer(unit, st, /*will_retry=*/false);
      {
        // Park only after the observer ran: teardown quiesces on
        // inflight_ and must not overtake a callback on this thread.
        std::lock_guard lock(mu_);
        inflight_ = false;
        idle_.notify_all();
      }
      return;  // gate stays closed: the stall watchdog quarantines
    }
    if (st.code() == StatusCode::kUnavailable &&
        attempt + 1 < retry_.max_attempts) {
      BoundaryErrorFn observer;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        ++stats_.errors;
        ++stats_.retries;
        retry_armed_ = true;
        retry_unit_ = unit;
        retry_attempt_ = attempt + 1;
        // inflight_ stays true: the pending timer IS the in-flight job,
        // so teardown quiesces on it like on any other drain.
        observer = on_error_;
      }
      if (observer) observer(unit, st, /*will_retry=*/true);
      const auto backoff_ns = static_cast<std::uint64_t>(
          retry_.backoff_us(unit, attempt + 1) * 1000.0);
      io_->note_retry(backoff_ns);
      if (!io_->post_after(std::chrono::nanoseconds(backoff_ns),
                           [this] { drain(); })) {
        fail(std::unique_lock(mu_), unit,
             Status(StatusCode::kUnavailable,
                    "I/O context stopped during retry of unit " +
                        std::to_string(unit)));
      }
      return;
    }
    // Retry budget exhausted or permanent device error.
    BoundaryErrorFn observer;
    {
      std::lock_guard lock(mu_);
      stats_.io_busy_s += seconds_between(t0, t1);
      ++stats_.errors;
      observer = on_error_;
    }
    if (observer) observer(unit, st, /*will_retry=*/false);
    Status terminal = st;
    if (st.code() == StatusCode::kUnavailable) {
      terminal = Status(StatusCode::kUnavailable,
                        "retry budget exhausted at unit " +
                            std::to_string(unit) + " after " +
                            std::to_string(retry_.max_attempts) +
                            " attempts: " + st.message());
    }
    fail(std::unique_lock(mu_), unit, std::move(terminal));
    return;
  }
}

void AsyncSource::body(mpsoc::TaskFiring& f) {
  mpsoc::Payload payload;
  bool notify_fail = false;
  std::uint64_t funit = 0;
  Status fstatus;
  BoundaryFailureFn on_fail;
  {
    std::lock_guard lock(mu_);
    if (!buffered_.empty()) {
      // The engine fires this body only while the gate holds, and the
      // task's single owner is the only consumer.
      payload = std::move(buffered_.front());
      buffered_.pop_front();
      if (!origins_.empty()) origins_.pop_front();
      ++pop_base_;
      gate_count_.store(buffered_.size(), std::memory_order_release);
      pump_locked();  // freed a prefetch slot: keep the device busy
    } else {
      // Boundary-failed path (gate held because io_failed_): empty
      // payload keeps the graph draining; the handler tells the truth.
      ++stats_.underruns;
    }
    if (fail_notify_pending_ && on_fail_) {
      fail_notify_pending_ = false;
      notify_fail = true;
      funit = failed_unit_;
      fstatus = failed_status_;
      on_fail = on_fail_;
    }
  }
  if (notify_fail) on_fail(funit, fstatus);
  const std::size_t n = f.outputs.size();
  if (pool_) {
    // Copy into the engine's recycled channel buffers and bank the unit
    // buffer for the paired sink — the adapter itself then allocates
    // nothing in steady state.
    for (std::size_t k = 0; k < n; ++k) {
      f.store(k, payload.data(), payload.size());
    }
    pool_->release(std::move(payload));
  } else {
    for (std::size_t k = 0; k + 1 < n; ++k) f.outputs[k] = payload;
    if (n > 0) f.outputs[n - 1] = std::move(payload);
  }
}

std::uint64_t AsyncSource::origin_ns(std::uint64_t unit) const {
  // The engine resolves a sampled unit's origin at firing start, while
  // the unit still sits at the buffer front (pops are strictly ordered,
  // one per firing), so the common case is origins_[0]. Anything outside
  // the buffered window answers 0 = "unknown, use firing start".
  std::lock_guard lock(mu_);
  if (unit < pop_base_) return 0;
  const std::uint64_t slot = unit - pop_base_;
  if (slot >= origins_.size()) return 0;
  return origins_[static_cast<std::size_t>(slot)];
}

BoundaryStats AsyncSource::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// AsyncSink
// ---------------------------------------------------------------------------

AsyncSink::AsyncSink(IoContext& io, WriteFn write, std::size_t depth,
                     std::shared_ptr<PayloadPool> pool)
    : AsyncSink(io, adapt_write_fn(std::move(write)), no_retry(), depth,
                std::move(pool)) {}

AsyncSink::AsyncSink(IoContext& io, TryWriteFn write, RetryPolicy retry,
                     std::size_t depth, std::shared_ptr<PayloadPool> pool)
    : io_(&io),
      write_(std::move(write)),
      retry_(retry),
      depth_(std::max<std::size_t>(1, depth)),
      pool_(std::move(pool)) {}

AsyncSink::~AsyncSink() {
  std::unique_lock lock(mu_);
  flushed_.wait(lock, [this] { return !inflight_; });
}

void AsyncSink::set_failure_handler(BoundaryFailureFn on_fail) {
  std::lock_guard lock(mu_);
  on_fail_ = std::move(on_fail);
}

void AsyncSink::set_error_observer(BoundaryErrorFn on_error) {
  std::lock_guard lock(mu_);
  on_error_ = std::move(on_error);
}

common::Status AsyncSink::failure() const {
  std::lock_guard lock(mu_);
  return failed_status_;
}

std::uint64_t AsyncSink::failed_unit() const {
  std::lock_guard lock(mu_);
  return failed_unit_;
}

bool AsyncSink::stuck() const {
  std::lock_guard lock(mu_);
  return stuck_;
}

void AsyncSink::fail(std::unique_lock<std::mutex> lock, std::uint64_t unit,
                     Status status) {
  const bool first = failed_status_.is_ok();
  if (first) {
    failed_status_ = status;
    failed_unit_ = unit;
  }
  // Drop everything we hold (counted) and open the gate so the pipeline
  // drains; the failure handler carries the real story.
  stats_.dropped += pending_.size() + (retry_active_ ? 1 : 0);
  pending_.clear();
  retry_armed_ = false;
  retry_active_ = false;
  retry_slot_.clear();
  occupied_ = 0;
  gate_occupied_.store(0, std::memory_order_release);
  io_failed_.store(true, std::memory_order_release);
  BoundaryFailureFn on_fail = first ? on_fail_ : BoundaryFailureFn{};
  if (first && !on_fail) fail_notify_pending_ = true;
  std::function<void()> waker = waker_;
  lock.unlock();
  if (first) io_->note_failure();
  if (on_fail) on_fail(unit, status);
  if (waker) waker();
  // Only now does the adapter go idle: ~AsyncSink (and flush()) must not
  // return while the failure handler is still running on this thread.
  lock.lock();
  inflight_ = false;
  flushed_.notify_all();
}

void AsyncSink::bind(mpsoc::TaskGraph& graph, mpsoc::TaskId task) {
  graph.set_body(task, [this](mpsoc::TaskFiring& f) { body(f); });
  graph.set_gate(task, [this] {
    return gate_occupied_.load(std::memory_order_acquire) < depth_ ||
           io_failed_.load(std::memory_order_acquire);
  });
}

void AsyncSink::attach(std::function<void()> waker) {
  std::function<void()> kick;
  bool notify_fail = false;
  std::uint64_t funit = 0;
  Status fstatus;
  BoundaryFailureFn on_fail;
  {
    std::lock_guard lock(mu_);
    waker_ = std::move(waker);
    kick = waker_;
    if (fail_notify_pending_ && on_fail_) {
      fail_notify_pending_ = false;
      notify_fail = true;
      funit = failed_unit_;
      fstatus = failed_status_;
      on_fail = on_fail_;
    }
  }
  if (notify_fail) on_fail(funit, fstatus);
  if (kick) kick();
}

void AsyncSink::body(mpsoc::TaskFiring& f) {
  bool notify_fail = false;
  std::uint64_t funit = 0;
  Status fstatus;
  BoundaryFailureFn on_fail;
  {
    std::lock_guard lock(mu_);
    if (io_failed_.load(std::memory_order_relaxed)) {
      ++stats_.dropped;  // boundary failed: unit discarded (counted)
    } else {
      // Engine contract: fired only while occupied_ < depth_ (the gate),
      // and this task's single owner is the only producer. The channel
      // still owns its slot, so bank a copy — drawn from the pool when
      // one is attached, so the copy reuses retired unit storage.
      mpsoc::Payload banked = pool_ ? pool_->acquire() : mpsoc::Payload{};
      banked.assign(f.inputs[0]->begin(), f.inputs[0]->end());
      pending_.push_back(std::move(banked));
      ++occupied_;
      gate_occupied_.store(occupied_, std::memory_order_release);
      stats_.max_buffered = std::max(stats_.max_buffered, pending_.size());
      if (!inflight_ && !stuck_) {
        inflight_ = true;
        if (!io_->post([this] { drain(); })) {
          // Context stopped under a live session: drop what we hold
          // (counted), keep the gate permanently open, unblock any
          // flush()er — and record the stop as a failure for the
          // handler (delivered below, off the lock).
          inflight_ = false;
          if (failed_status_.is_ok()) {
            failed_status_ =
                Status(StatusCode::kUnavailable,
                       "I/O context stopped before writing unit " +
                           std::to_string(next_write_));
            failed_unit_ = next_write_;
            fail_notify_pending_ = true;
            io_->note_failure();  // counter add only — safe under mu_
          }
          io_failed_.store(true, std::memory_order_release);
          stats_.dropped += pending_.size();
          pending_.clear();
          occupied_ = 0;
          gate_occupied_.store(0, std::memory_order_release);
          flushed_.notify_all();
        }
      }
    }
    if (fail_notify_pending_ && on_fail_) {
      fail_notify_pending_ = false;
      notify_fail = true;
      funit = failed_unit_;
      fstatus = failed_status_;
      on_fail = on_fail_;
    }
  }
  if (notify_fail) on_fail(funit, fstatus);
}

void AsyncSink::drain() {
  for (;;) {
    mpsoc::Payload payload;
    std::uint64_t unit;
    std::uint32_t attempt;
    {
      std::lock_guard lock(mu_);
      if (io_failed_.load(std::memory_order_relaxed)) {
        inflight_ = false;
        flushed_.notify_all();
        return;
      }
      if (retry_armed_) {
        // A backoff timer delivered us here: resume the retried unit.
        retry_armed_ = false;
        payload = std::move(retry_slot_);
        retry_slot_.clear();
        unit = retry_unit_;
        attempt = retry_attempt_;
      } else if (!stuck_ && !pending_.empty()) {
        payload = std::move(pending_.front());
        pending_.pop_front();
        unit = next_write_++;
        attempt = 0;
        retry_active_ = true;  // the writer now holds this unit
        retry_unit_ = unit;
      } else {
        inflight_ = false;
        flushed_.notify_all();
        return;
      }
    }
    const std::size_t bytes = payload.size();
    const auto t0 = Clock::now();
    Status st = write_(unit, payload);  // adapter keeps ownership
    const auto t1 = Clock::now();
    if (st.is_ok()) {
      if (pool_) pool_->release(std::move(payload));
      std::function<void()> waker;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        ++stats_.units;
        stats_.bytes += bytes;
        if (attempt > 0) ++stats_.recovered;
        retry_active_ = false;
        // The slot counts as occupied until the write *finished* — that
        // is the back-pressure a slow device exerts on the pipeline.
        --occupied_;
        gate_occupied_.store(occupied_, std::memory_order_release);
        waker = waker_;
      }
      if (waker) waker();
      continue;
    }
    if (st.code() == StatusCode::kResourceExhausted) {
      // Stuck device: park with the unit banked and its occupancy slot
      // held — the pipeline back-pressures, the watchdog quarantines.
      BoundaryErrorFn observer;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        ++stats_.errors;
        stuck_ = true;
        retry_slot_ = std::move(payload);
        observer = on_error_;
      }
      if (observer) observer(unit, st, /*will_retry=*/false);
      {
        // Park only after the observer ran: teardown quiesces on
        // inflight_ and must not overtake a callback on this thread.
        std::lock_guard lock(mu_);
        inflight_ = false;
        flushed_.notify_all();
      }
      return;
    }
    if (st.code() == StatusCode::kUnavailable &&
        attempt + 1 < retry_.max_attempts) {
      BoundaryErrorFn observer;
      {
        std::lock_guard lock(mu_);
        stats_.io_busy_s += seconds_between(t0, t1);
        ++stats_.errors;
        ++stats_.retries;
        retry_armed_ = true;
        retry_slot_ = std::move(payload);
        retry_attempt_ = attempt + 1;
        // inflight_ stays true (the timer IS the in-flight job), and
        // the unit keeps its occupied_ slot through the backoff.
        observer = on_error_;
      }
      if (observer) observer(unit, st, /*will_retry=*/true);
      const auto backoff_ns = static_cast<std::uint64_t>(
          retry_.backoff_us(unit, attempt + 1) * 1000.0);
      io_->note_retry(backoff_ns);
      if (!io_->post_after(std::chrono::nanoseconds(backoff_ns),
                           [this] { drain(); })) {
        fail(std::unique_lock(mu_), unit,
             Status(StatusCode::kUnavailable,
                    "I/O context stopped during retry of unit " +
                        std::to_string(unit)));
      }
      return;
    }
    // Retry budget exhausted or permanent device error.
    BoundaryErrorFn observer;
    {
      std::lock_guard lock(mu_);
      stats_.io_busy_s += seconds_between(t0, t1);
      ++stats_.errors;
      observer = on_error_;
    }
    if (observer) observer(unit, st, /*will_retry=*/false);
    Status terminal = st;
    if (st.code() == StatusCode::kUnavailable) {
      terminal = Status(StatusCode::kUnavailable,
                        "retry budget exhausted at unit " +
                            std::to_string(unit) + " after " +
                            std::to_string(retry_.max_attempts) +
                            " attempts: " + st.message());
    }
    fail(std::unique_lock(mu_), unit, std::move(terminal));
    return;
  }
}

void AsyncSink::flush() {
  std::unique_lock lock(mu_);
  flushed_.wait(lock, [this] {
    return (pending_.empty() && !inflight_) ||
           io_failed_.load(std::memory_order_relaxed) || stuck_;
  });
}

BoundaryStats AsyncSink::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// RTP endpoints
// ---------------------------------------------------------------------------

RtpIngress::RtpIngress(std::vector<TimedPacket> feed, RtpIngressOptions options)
    : feed_(std::move(feed)),
      receiver_(options.playout_delay_units),
      time_scale_(options.time_scale) {}

std::optional<mpsoc::Payload> RtpIngress::read(std::uint64_t /*index*/) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto unit = receiver_.pop()) {
      last_unit_ = unit->payload;
      return mpsoc::Payload(std::move(unit->payload));
    }
    if (feed_pos_ >= feed_.size()) break;
    const TimedPacket& pkt = feed_[feed_pos_++];
    const double gap_us = pkt.arrival_us - clock_us_;
    clock_us_ = std::max(clock_us_, pkt.arrival_us);
    if (time_scale_ > 0.0 && gap_us > 0.0) {
      lock.unlock();  // model the arrival gap without holding the state
      sleep_us(gap_us * time_scale_);
      lock.lock();
    }
    receiver_.push(pkt.bytes, pkt.arrival_us);
  }
  // Feed drained: flush the jitter buffer — a gap can no longer age, so
  // the receiver conceals it immediately and the packets that *did*
  // arrive behind it still play out in order.
  if (auto unit = receiver_.pop_flush()) {
    last_unit_ = unit->payload;
    return mpsoc::Payload(std::move(unit->payload));
  }
  if (receiver_.received() == 0) return std::nullopt;  // nothing ever arrived
  // Pure tail loss (buffer empty, stream short): repeat the last
  // delivered unit so the session still gets its full unit count.
  ++tail_concealed_;
  return last_unit_;
}

std::uint64_t RtpIngress::concealed() const {
  std::lock_guard lock(mu_);
  return receiver_.lost() + tail_concealed_;
}

std::uint64_t RtpIngress::packets_received() const {
  std::lock_guard lock(mu_);
  return receiver_.received();
}

double RtpIngress::jitter_us() const {
  std::lock_guard lock(mu_);
  return receiver_.jitter_us();
}

RtpEgress::RtpEgress(RtpEgressOptions options) : options_(options) {}

void RtpEgress::write(std::uint64_t index, const mpsoc::Payload& unit) {
  {
    std::lock_guard lock(mu_);
    auto packet = sender_.packetize(
        unit, static_cast<std::uint32_t>(index) * options_.timestamp_step);
    bytes_ += packet.size();
    packets_.push_back(std::move(packet));
  }
  sleep_us(options_.pacing_us * options_.time_scale);
}

std::vector<std::vector<std::uint8_t>> RtpEgress::take_packets() {
  std::lock_guard lock(mu_);
  return std::move(packets_);
}

std::uint64_t RtpEgress::packets_sent() const {
  std::lock_guard lock(mu_);
  return packets_.size();
}

std::uint64_t RtpEgress::bytes_sent() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

std::vector<TimedPacket> make_timed_feed(
    std::vector<std::vector<std::uint8_t>> packets, double interval_us) {
  std::vector<TimedPacket> feed;
  feed.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    feed.push_back(TimedPacket{std::move(packets[i]),
                               static_cast<double>(i) * interval_us});
  }
  return feed;
}

// ---------------------------------------------------------------------------
// Block-storage endpoints
// ---------------------------------------------------------------------------

BlockFileSource::BlockFileSource(fs::FatVolume& volume,
                                 std::shared_ptr<std::mutex> volume_mu,
                                 StreamIndex index, BlockIoOptions options)
    : volume_(&volume),
      volume_mu_(std::move(volume_mu)),
      index_(std::move(index)),
      options_(options) {}

std::optional<mpsoc::Payload> BlockFileSource::read(std::uint64_t index) {
  auto produced = try_read(index);
  if (!produced.is_ok()) return std::nullopt;
  return std::move(produced.value());
}

Result<mpsoc::Payload> BlockFileSource::try_read(std::uint64_t index) {
  if (index >= index_.offsets.size()) {
    return Result<mpsoc::Payload>(
        Status(StatusCode::kOutOfRange,
               "end of stream at unit " + std::to_string(index)));
  }
  mpsoc::Payload payload;
  double delta_us = 0.0;
  Status device_status = Status::ok();
  {
    std::lock_guard vol_lock(*volume_mu_);
    const double before = volume_->device().modeled_time_us(options_.timing);
    auto data = volume_->read_file_range(index_.path, index_.offsets[index],
                                         index_.sizes[index]);
    delta_us = volume_->device().modeled_time_us(options_.timing) - before;
    if (!data.is_ok()) {
      device_status = data.status();
    } else {
      payload = std::move(data.value());
    }
  }
  {
    std::lock_guard lock(mu_);
    modeled_us_ += delta_us;
    if (!device_status.is_ok()) errors_.record(index, device_status);
  }
  sleep_us(delta_us * options_.time_scale);  // the disk "takes" this long
  if (!device_status.is_ok()) {
    // Volume errors are permanent (kInternal), deliberately distinct
    // from kOutOfRange EOS and retryable kUnavailable — a corrupt FAT
    // chain will not heal on retry.
    return Result<mpsoc::Payload>(
        Status(StatusCode::kInternal,
               "device read failed at unit " + std::to_string(index) + ": " +
                   device_status.to_text()));
  }
  return Result<mpsoc::Payload>(std::move(payload));
}

double BlockFileSource::modeled_io_us() const {
  std::lock_guard lock(mu_);
  return modeled_us_;
}

IoErrorSummary BlockFileSource::error_summary() const {
  std::lock_guard lock(mu_);
  return errors_;
}

BlockFileSink::BlockFileSink(fs::FatVolume& volume,
                             std::shared_ptr<std::mutex> volume_mu,
                             std::string path, BlockIoOptions options)
    : volume_(&volume),
      volume_mu_(std::move(volume_mu)),
      path_(std::move(path)),
      options_(options) {}

void BlockFileSink::write(std::uint64_t index, const mpsoc::Payload& unit) {
  (void)try_write(index, unit);  // recorded-and-swallowed legacy semantics
}

common::Status BlockFileSink::try_write(std::uint64_t index,
                                        const mpsoc::Payload& unit) {
  double delta_us = 0.0;
  common::Status device_status = Status::ok();
  {
    std::lock_guard vol_lock(*volume_mu_);
    const double before = volume_->device().modeled_time_us(options_.timing);
    device_status = volume_->append_file(path_, unit);
    delta_us = volume_->device().modeled_time_us(options_.timing) - before;
  }
  {
    std::lock_guard lock(mu_);
    modeled_us_ += delta_us;
    if (!device_status.is_ok()) {
      if (status_.is_ok()) status_ = device_status;  // first device error wins
      errors_.record(index, device_status);
    }
  }
  sleep_us(delta_us * options_.time_scale);
  if (!device_status.is_ok()) {
    // Same rationale as try_read: volume errors are permanent
    // (kInternal), never retryable.
    return Status(StatusCode::kInternal,
                  "device write failed at unit " + std::to_string(index) +
                      ": " + device_status.to_text());
  }
  return Status::ok();
}

double BlockFileSink::modeled_io_us() const {
  std::lock_guard lock(mu_);
  return modeled_us_;
}

common::Status BlockFileSink::status() const {
  std::lock_guard lock(mu_);
  return status_;
}

IoErrorSummary BlockFileSink::error_summary() const {
  std::lock_guard lock(mu_);
  return errors_;
}

}  // namespace mmsoc::runtime
