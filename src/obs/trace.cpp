#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/json.hpp"

namespace ptrack::obs {

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

/// 32 Ki events (~0.8 MB) per thread: a full batch trace emits ~10 spans,
/// so this holds thousands of traces between exports before wrapping.
constexpr std::uint64_t kRingCapacity = 1u << 15;

struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  bool end = false;
};

struct ThreadRing {
  std::uint32_t tid = 0;
  std::uint64_t head = 0;  ///< total events pushed (ring index = i % cap)
  std::vector<SpanEvent> events;
};

std::mutex& rings_mutex() {
  static std::mutex m;
  return m;
}

/// shared_ptr-held so rings of exited threads stay exportable.
std::vector<std::shared_ptr<ThreadRing>>& rings() {
  static std::vector<std::shared_ptr<ThreadRing>> r;
  return r;
}

ThreadRing& local_ring() {
  thread_local const std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    r->events.resize(kRingCapacity);
    std::lock_guard<std::mutex> lk(rings_mutex());
    r->tid = static_cast<std::uint32_t>(rings().size());
    rings().push_back(r);
    return r;
  }();
  return *ring;
}

void push_event(const char* name, bool end) {
  ThreadRing& r = local_ring();
  r.events[r.head % kRingCapacity] = {name, now_ns(), end};
  ++r.head;
}

}  // namespace

ObsSpan::ObsSpan(const char* name) : name_(enabled() ? name : nullptr) {
  // The end event is pushed iff the begin was, even if the runtime switch
  // flips mid-span — rings stay balanced under toggling.
  if (name_ != nullptr) push_event(name_, /*end=*/false);
}

ObsSpan::~ObsSpan() {
  if (name_ != nullptr) push_event(name_, /*end=*/true);
}

StageTimer::StageTimer() {
  if (enabled()) {
    active_ = true;
    last_ = now_ns();
  }
}

double StageTimer::lap_us() {
  if (!active_) return 0.0;
  const std::uint64_t t = now_ns();
  const double us = static_cast<double>(t - last_) / 1000.0;
  last_ = t;
  return us;
}

void write_chrome_trace(std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  std::lock_guard<std::mutex> lk(rings_mutex());
  for (const auto& ring : rings()) {
    const std::uint64_t n = std::min(ring->head, kRingCapacity);
    std::vector<SpanEvent> evs;
    evs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = ring->head - n; i < ring->head; ++i) {
      evs.push_back(ring->events[i % kRingCapacity]);
    }
    // Re-balance: RAII guarantees strict nesting per thread, so the only
    // unmatched events are ends whose begin was overwritten by ring wrap
    // (truncated prefix) and begins still open at export time. A stack
    // match drops exactly those.
    std::vector<std::size_t> open;
    std::vector<bool> emit(evs.size(), false);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      if (!evs[i].end) {
        open.push_back(i);
      } else if (!open.empty() && evs[open.back()].name == evs[i].name) {
        emit[open.back()] = true;
        emit[i] = true;
        open.pop_back();
      }
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      if (!emit[i]) continue;
      w.begin_object();
      w.key("name").value(evs[i].name);
      w.key("cat").value("ptrack");
      w.key("ph").value(evs[i].end ? "E" : "B");
      w.key("ts").value(static_cast<double>(evs[i].ts_ns) / 1000.0);
      w.key("pid").value(static_cast<std::size_t>(1));
      w.key("tid").value(static_cast<std::size_t>(ring->tid));
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

void reset_trace() {
  std::lock_guard<std::mutex> lk(rings_mutex());
  for (const auto& ring : rings()) ring->head = 0;
}

}  // namespace ptrack::obs
