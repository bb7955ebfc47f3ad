// Structured logging: leveled JSON-lines records with literal keys,
// designed so a hot thread never blocks, allocates or formats.
//
// Write path: a call site checks the runtime kill switch, its subsystem's
// level and a per-subsystem token bucket, then copies a fixed-size Record
// (literal subsystem/event/key pointers, POD values, short strings copied
// inline) into the calling thread's lock-free SPSC ring. Formatting,
// escaping and I/O happen later, on whichever thread calls drain() — the
// reactor loop in ptrack_serve, or process exit in the CLIs. A full ring
// drops the record and counts the drop; it never blocks the writer.
//
// Levels are per subsystem and runtime-adjustable (set_level /
// apply_level_spec — the `--log-level` flag's format). The token bucket
// bounds a misbehaving subsystem's output rate; suppressed and dropped
// records are counted in the metrics registry
// (ptrack.obs.log_{suppressed,dropped}).
//
// Record schema (one JSON object per line, literal snake_case keys —
// enforced by ptrack_lint's `log-key` rule):
//   {"ts":<unix seconds>,"level":"info","subsys":"net",
//    "event":"session_accepted","tid":0,<kv pairs...>}

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace ptrack::obs::log {

enum class Level : std::uint8_t {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* to_string(Level level);
/// "trace" | "debug" | "info" | "warn" | "error" | "off".
[[nodiscard]] bool parse_level(std::string_view text, Level& out);

/// Tagged value carried by a record. Not a union: records are copied
/// whole through the ring, and a few plain members keep that copy trivially
/// correct at the cost of some ring bytes.
struct Value {
  enum class Tag : std::uint8_t { kI64, kU64, kF64, kBool, kStr };
  Tag tag = Tag::kI64;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double f = 0.0;
  bool b = false;
  char str[24] = {};  ///< kStr: NUL-terminated, truncated copy
};

struct KeyValue {
  const char* key = nullptr;  ///< string literal (see log-key lint rule)
  Value value;
};

[[nodiscard]] KeyValue kv(const char* key, int v);
[[nodiscard]] KeyValue kv(const char* key, long v);
[[nodiscard]] KeyValue kv(const char* key, long long v);
[[nodiscard]] KeyValue kv(const char* key, unsigned v);
[[nodiscard]] KeyValue kv(const char* key, unsigned long v);
[[nodiscard]] KeyValue kv(const char* key, unsigned long long v);
[[nodiscard]] KeyValue kv(const char* key, double v);
[[nodiscard]] KeyValue kv(const char* key, bool v);
[[nodiscard]] KeyValue kv(const char* key, const char* v);
[[nodiscard]] KeyValue kv(const char* key, std::string_view v);

/// Key/value pairs per record; extra pairs are dropped (truncation is
/// visible in the output, never UB).
inline constexpr std::size_t kMaxKvs = 6;

struct Record {
  double wall_unix_s = 0.0;
  const char* subsystem = nullptr;  ///< stable registry-owned name
  const char* event = nullptr;      ///< string literal
  Level level = Level::kInfo;
  std::uint8_t n_kv = 0;
  std::uint32_t tid = 0;            ///< obs thread slot, not the OS tid
  KeyValue kvs[kMaxKvs];
};

/// Per-subsystem state: level and token bucket. Handles from subsystem()
/// are stable for the process lifetime (the macros cache them in
/// function-local statics, like the metric macros).
class Subsystem {
 public:
  /// Level gate plus one token-bucket draw. A true return must be followed
  /// by emit() — the token is already spent.
  [[nodiscard]] bool should(Level level);
  void emit(Level level, const char* event,
            std::initializer_list<KeyValue> kvs);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }
  void set_level(Level level) {
    level_.store(static_cast<std::uint8_t>(level),
                 std::memory_order_relaxed);
  }
  /// records_per_s <= 0 disables refill (the bucket empties for good —
  /// tests use this for deterministic suppression). burst is the bucket
  /// capacity and initial fill.
  void set_rate_limit(double records_per_s, double burst);

 private:
  friend class Registrar;
  explicit Subsystem(std::string name);
  [[nodiscard]] bool take_token();

  std::string name_;
  std::atomic<std::uint8_t> level_;
  std::atomic<double> tokens_;
  std::atomic<double> rate_per_s_;
  std::atomic<double> burst_;
  std::atomic<std::int64_t> last_refill_ns_{0};
};

/// Registers (or finds) a subsystem. Names are one snake_case segment
/// ([a-z0-9_]+). New subsystems start at the process default level.
[[nodiscard]] Subsystem& subsystem(std::string_view name);

/// Default level applied to subsystems created afterwards.
void set_default_level(Level level);
/// Sets one subsystem's level (creating it if needed).
void set_level(std::string_view name, Level level);

/// Applies a `--log-level` spec: either a bare level ("debug" — becomes
/// the default and is applied to every existing subsystem) or a comma
/// list of overrides ("info,net=debug,serve=warn"). Returns false on a
/// malformed spec (unknown level or bad subsystem name).
[[nodiscard]] bool apply_level_spec(std::string_view spec);

/// Serializes every pending record from every thread's ring as JSON lines
/// to `os` (oldest-first per ring). One drainer at a time (internally
/// serialized); returns records written. A nonzero ring-overflow count
/// since the last drain emits one synthetic `log_records_dropped` record.
std::size_t drain(std::ostream& os);

/// drain() to the configured sink (set_sink; default stderr).
std::size_t drain();

/// Redirects drain()'s default sink; nullptr restores stderr. The pointee
/// must outlive subsequent drains.
void set_sink(std::ostream* os);

/// Formats one record as a JSON line (exposed for tests).
void format_record(std::ostream& os, const Record& rec);

}  // namespace ptrack::obs::log

/// Emits one structured record to subsystem `subsys_` (string literal) at
/// `level_`. Costs one relaxed load when the runtime switch is off, one
/// extra level check when the level filters it, and one Record copy into a
/// lock-free per-thread ring when it passes. Usage:
///   PTRACK_LOG_INFO("net", "session_accepted", kv("fd", fd));
#define PTRACK_LOG(subsys_, level_, event_, ...)                            \
  do {                                                                      \
    if (::ptrack::obs::enabled()) {                                         \
      static ::ptrack::obs::log::Subsystem& PTRACK_OBS_CAT_(                \
          ptrack_obs_log_, __LINE__) =                                      \
          ::ptrack::obs::log::subsystem(subsys_);                           \
      if (PTRACK_OBS_CAT_(ptrack_obs_log_, __LINE__).should(level_)) {      \
        using ::ptrack::obs::log::kv;                                       \
        PTRACK_OBS_CAT_(ptrack_obs_log_, __LINE__)                          \
            .emit(level_, event_, {__VA_ARGS__});                           \
      }                                                                     \
    }                                                                       \
  } while (0)

#define PTRACK_LOG_TRACE(subsys_, event_, ...)                         \
  PTRACK_LOG(subsys_, ::ptrack::obs::log::Level::kTrace,               \
             event_ __VA_OPT__(, ) __VA_ARGS__)
#define PTRACK_LOG_DEBUG(subsys_, event_, ...)                         \
  PTRACK_LOG(subsys_, ::ptrack::obs::log::Level::kDebug,               \
             event_ __VA_OPT__(, ) __VA_ARGS__)
#define PTRACK_LOG_INFO(subsys_, event_, ...)                          \
  PTRACK_LOG(subsys_, ::ptrack::obs::log::Level::kInfo,                \
             event_ __VA_OPT__(, ) __VA_ARGS__)
#define PTRACK_LOG_WARN(subsys_, event_, ...)                          \
  PTRACK_LOG(subsys_, ::ptrack::obs::log::Level::kWarn,                \
             event_ __VA_OPT__(, ) __VA_ARGS__)
#define PTRACK_LOG_ERROR(subsys_, event_, ...)                         \
  PTRACK_LOG(subsys_, ::ptrack::obs::log::Level::kError,               \
             event_ __VA_OPT__(, ) __VA_ARGS__)
