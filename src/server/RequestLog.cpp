//===- RequestLog.cpp - Structured serve-mode request log --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/RequestLog.h"

#include "support/JsonWriter.h"
#include "support/Knobs.h"

#include <cerrno>
#include <chrono>
#include <cstring>

using namespace igen;
using namespace igen::server;

namespace {

uint64_t monotonicUs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// JsonWriter pretty-prints; log lines must be single lines. Newlines
/// inside string values are escaped by the writer, so this is lossless.
std::string oneLine(std::string Pretty) {
  std::string Out;
  Out.reserve(Pretty.size());
  for (size_t I = 0; I < Pretty.size(); ++I) {
    if (Pretty[I] == '\n') {
      while (I + 1 < Pretty.size() && Pretty[I + 1] == ' ')
        ++I;
      continue;
    }
    Out.push_back(Pretty[I]);
  }
  return Out;
}

} // namespace

RequestLog::RequestLog(const std::string &Path) {
  if (Path.empty())
    return;
  if (Path == "-") {
    Out = stderr;
    return;
  }
  Out = std::fopen(Path.c_str(), "a");
  if (!Out) {
    warnKnobOnce(Knob::ServeLog,
                 knobWarning(Knob::ServeLog, "unusable", Path,
                             std::string("cannot open it: ") +
                                 std::strerror(errno)));
    return;
  }
  OwnsFile = true;
}

RequestLog::~RequestLog() {
  if (Out && OwnsFile)
    std::fclose(Out);
}

void RequestLog::line(const std::string &Json) {
  std::lock_guard<std::mutex> G(Mu);
  std::fprintf(Out, "%s\n", Json.c_str());
  std::fflush(Out);
}

void RequestLog::request(std::string_view Verb, std::string_view Hash,
                         uint64_t LatencyUs, std::string_view Outcome) {
  if (!Out)
    return;
  JsonWriter W;
  W.beginObject();
  W.field("ts_us", monotonicUs());
  W.field("kind", std::string_view("request"));
  W.field("verb", Verb);
  if (!Hash.empty())
    W.field("hash", Hash);
  W.field("latency_us", LatencyUs);
  W.field("outcome", Outcome);
  W.endObject();
  line(oneLine(W.take()));
}

void RequestLog::event(std::string_view Event, std::string_view Detail) {
  if (!Out)
    return;
  JsonWriter W;
  W.beginObject();
  W.field("ts_us", monotonicUs());
  W.field("kind", std::string_view("event"));
  W.field("event", Event);
  W.field("detail", Detail);
  W.endObject();
  line(oneLine(W.take()));
}
