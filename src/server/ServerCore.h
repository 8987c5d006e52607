//===- ServerCore.h - Serve-mode request dispatch ---------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of `igen --serve`: one newline-
/// delimited JSON frame in, one JSON response line out. The Unix-socket
/// layer (SocketServer), the tests, the fuzzer, and the bench harness
/// all drive this same entry point, so every protocol behavior is
/// exercisable in-process without a socket.
///
/// Protocol (one JSON object per line; `id` is echoed when present):
///
///   {"op":"compile","source":"...","options":{...}}
///     -> {"ok":true,"handle":"<16 hex>","cached":bool,
///         "functions":[...],"emitted_bytes":N}
///     Options: precision ("f64"|"dd"), target ("sv"|"ss"), reductions,
///     batch_loops, branch ("exception"|"join"), opt_level, profile,
///     tier, harden, module. The request is a transaction: failures
///     report {code:"parse-error"|"sema-error"|"transform-error",
///     stage, diagnostics:[...]} and leave no daemon state behind.
///
///   {"op":"eval","handle":"...","function":"...","args":[...],
///    "options":{...}}
///     Args: number | {"lo":..,"hi":..} | {"hex":"<16hex>"} |
///     {"lo_hex":..,"hi_hex":..} | {"int":N} | {"point":X} |
///     {"array":[...]}. Options: fenv_policy ("repair"|"poison"),
///     tier_width, step_limit. The evaluator runs the program's lowered
///     form, the same nodes the emitted C is printed from, so the compile
///     options decide the semantics: an opt_level 1 program runs the -O
///     lowering, and the branch policy and reductions are the compiled
///     ones. An eval that carries "branch" or "reductions" gets a typed
///     bad-option error naming the compile option to use.
///     -> {"ok":true,"result":{...},"arrays":[...],"poisoned":bool,
///         "wide":bool,"aot_exact":bool,"ops":N}
///     Endpoints come back both as decimal and as IEEE bit patterns
///     (lo_hex/hi_hex), so bit-exact transport survives JSON.
///     aot_exact: the result is bit-identical to the emitted C compiled
///     for the same options -- true for f64 --target=ss programs without
///     --tier, at any opt_level (a tier artifact may escalate to its
///     double-double clone, which the daemon never does). ops: the units
///     the step budget counts (lowered nodes executed, loop iterations,
///     and the elements of row-kernel and batch-loop calls).
///
///   {"op":"stats"}   -> the igen_serve_stats v2 schema (cache
///                       hit/miss/evict, per-endpoint counts, log2
///                       latency histograms, fenv + eval counters, and
///                       the resilience block: drain state, in-flight
///                       requests, deadline/retry/drain/replay totals).
///   {"op":"health"}  -> {"ok":true,"state":"serving"|"draining",
///                        "in_flight":N,"slowest_in_flight_us":N,
///                        "uptime_us":N}. Answerable even while every
///                        worker is busy (the socket layer fast-paths
///                        it on the reactor thread).
///   {"op":"evict","handle":"..."} or {"op":"evict","all":true}
///   {"op":"shutdown"}
///
/// Deadlines: any request may carry "deadline_ms":N (wall-clock budget
/// measured from frame *arrival*, so queue time counts); the
/// IGEN_SERVE_DEADLINE environment value supplies a default for
/// requests that don't. Expiry is detected cooperatively — at
/// evaluator loop back-edges and call entries, and at pipeline stage
/// boundaries during compile — and surfaces as a typed
/// "deadline-exceeded" error; the worker thread survives and keeps
/// serving. Clients may tag re-sent frames with "retry":N, which the
/// daemon counts (stats.resilience.retried) but otherwise ignores.
///
/// Draining: beginDrain() (wired to SIGTERM/SIGINT by the socket
/// layer) flips the core into a mode where compile/eval/evict answer a
/// typed "shutting-down" error while stats/health/shutdown still work,
/// so a load balancer can observe the drain instead of seeing the
/// connection die.
///
/// Isolation: every eval runs under its own RoundUpwardScope with an
/// igen_fenv_check-style sentinel on entry and exit. The per-request
/// fenv policy is applied locally (never through the process-global
/// IGEN_FENV_POLICY cache, which concurrent tenants must not touch);
/// "abort" is rejected as a typed error because a tenant must not be
/// able to bring the daemon down. All evaluator options are plain
/// per-call values, so concurrent requests with different options
/// cannot observe each other.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_SERVERCORE_H
#define IGEN_SERVER_SERVERCORE_H

#include "server/FunctionCache.h"
#include "server/PersistCache.h"
#include "server/RequestLog.h"
#include "support/Knobs.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace igen {
namespace server {

/// Maximum accepted frame size (bytes). Longer frames get a typed
/// "frame-too-large" error. IGEN_SERVE_MAX_FRAME from the knob table
/// (default 4 MiB).
inline size_t maxFrameBytes() {
  return static_cast<size_t>(knobInt(Knob::ServeMaxFrame));
}

/// Per-endpoint request accounting plus a log2(microseconds) latency
/// histogram: bucket k counts requests with latency in [2^k, 2^(k+1))
/// microseconds.
struct EndpointStats {
  static constexpr int NumBuckets = 32;
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> TotalUs{0};
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};

  void record(uint64_t Us, bool Error);
};

/// Construction knobs. The long-only ServerCore constructor fills the
/// rest from the knob table (IGEN_SERVE_CACHE_DIR, IGEN_SERVE_DEADLINE,
/// IGEN_SERVE_LOG); tests pass explicit values to stay hermetic.
struct ServerCoreConfig {
  long CacheCapacity = 0;       ///< <=0: IGEN_SERVE_CACHE or 64
  std::string CacheDir;         ///< validated dir ("" = no persistence)
  std::string LogPath;          ///< request log ("" = off, "-" = stderr)
  long long DefaultDeadlineMs = 0; ///< 0 = no default deadline

  /// Reads the serve knobs and validates the cache directory; a rejected
  /// value warns once per process.
  static ServerCoreConfig fromEnv(long CacheCapacity = 0);
};

class ServerCore {
public:
  explicit ServerCore(long CacheCapacity = 0);
  explicit ServerCore(const ServerCoreConfig &Config);

  /// Handles one frame (newline already stripped); returns exactly one
  /// JSON line without the trailing newline. Never throws; any internal
  /// failure becomes a typed error response. \p Arrival is when the
  /// frame was read off the wire — deadlines are measured from it, so
  /// time spent queued behind other requests counts against the budget.
  std::string handleFrame(std::string_view Frame,
                          std::chrono::steady_clock::time_point Arrival);
  std::string handleFrame(std::string_view Frame) {
    return handleFrame(Frame, std::chrono::steady_clock::now());
  }

  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }
  /// Forces the shutdown flag (drain-deadline enforcement in the
  /// socket layer; equivalent to receiving {"op":"shutdown"}).
  void requestShutdown() { Shutdown.store(true, std::memory_order_release); }

  /// Enters drain mode (idempotent): mutating ops answer
  /// "shutting-down"; stats/health/shutdown keep working.
  void beginDrain();
  bool draining() const { return Draining.load(std::memory_order_acquire); }

  /// In-flight snapshot from the per-worker heartbeat slots: how many
  /// requests are executing right now, and the age of the oldest one.
  struct InFlightSnapshot {
    uint64_t Count = 0;
    uint64_t SlowestUs = 0;
  };
  InFlightSnapshot inFlight() const;

  FunctionCache &cache() { return Cache; }
  RequestLog &log() { return Log; }
  /// Entries replayed from IGEN_SERVE_CACHE_DIR at construction.
  uint64_t cacheReplayed() const {
    return CacheReplayed.load(std::memory_order_relaxed);
  }

private:
  FunctionCache Cache;
  PersistentCacheDir Persist;
  RequestLog Log;
  long long DefaultDeadlineMs;
  std::chrono::steady_clock::time_point StartTime;
  std::atomic<bool> Shutdown{false};
  std::atomic<bool> Draining{false};

  enum Endpoint { EpCompile, EpEval, EpStats, EpEvict, EpShutdown,
                  EpHealth, EpInvalid, EpCount };
  mutable std::array<EndpointStats, EpCount> Ep;

  // Served-evaluation counters (stats.evals).
  std::atomic<uint64_t> EvalsServed{0};
  std::atomic<uint64_t> EvalErrors{0};
  std::atomic<uint64_t> EvalsPoisoned{0};
  std::atomic<uint64_t> EvalOps{0};

  // Resilience counters (stats.resilience).
  std::atomic<uint64_t> DeadlineExceeded{0};
  std::atomic<uint64_t> Retried{0};
  std::atomic<uint64_t> Drained{0};
  std::atomic<uint64_t> CacheReplayed{0};

  // Worker heartbeat: one slot per concurrently executing request,
  // holding its arrival time in monotonic microseconds (0 = free).
  // Sized for far more workers than the pool will ever run; requests
  // beyond that are simply not tracked (never blocked).
  static constexpr int kHeartbeatSlots = 64;
  mutable std::array<std::atomic<uint64_t>, kHeartbeatSlots> Heartbeat{};

  /// What dispatch learned about a frame, for the request log and the
  /// resilience counters.
  struct FrameInfo {
    std::string Verb;           ///< op string ("" when none was parsed)
    std::string Hash;           ///< content hash when one was derived
    std::string Outcome = "ok"; ///< "ok" or the typed error code
  };

  /// \p Start is handleFrame's entry timestamp, reused for deadline
  /// pre-expiry checks so the hot dispatch path reads the clock once.
  /// Every error reply records its code in Info.Outcome where it is
  /// rendered.
  std::string dispatch(std::string_view Frame,
                       std::chrono::steady_clock::time_point Arrival,
                       std::chrono::steady_clock::time_point Start,
                       Endpoint &EpOut, FrameInfo &Info);
};

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_SERVERCORE_H
