//===- ServerCore.cpp - Serve-mode request dispatch --------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/ServerCore.h"

#include "frontend/AST.h"
#include "harden/FenvSentinel.h"
#include "interval/Rounding.h"
#include "server/Evaluator.h"
#include "server/Json.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace igen;
using namespace igen::server;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// JsonWriter pretty-prints; the protocol is one line per frame. Raw
/// newlines never occur inside JSON string literals (the writer escapes
/// them), so dropping each '\n' plus its following indent is lossless.
std::string flattenOneLine(std::string Pretty) {
  std::string Out;
  Out.reserve(Pretty.size());
  size_t I = 0;
  while (I < Pretty.size()) {
    char C = Pretty[I];
    if (C == '\n') {
      ++I;
      while (I < Pretty.size() && Pretty[I] == ' ')
        ++I;
      continue;
    }
    Out.push_back(C);
    ++I;
  }
  return Out;
}

std::string doubleToHex(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Bits);
  return Buf;
}

bool hexToDouble(std::string_view S, double &Out) {
  uint64_t Bits;
  if (!parseHandle(S, Bits)) // same 16-hex-digit grammar
    return false;
  std::memcpy(&Out, &Bits, sizeof(Out));
  return true;
}

/// Echoable request id: strings and numbers only (objects/arrays as ids
/// are rejected as bad requests before this runs).
struct RequestId {
  bool Present = false;
  bool IsString = false;
  std::string Str; ///< string value, or the raw number spelling
};

void writeId(JsonWriter &W, const RequestId &Id) {
  if (!Id.Present)
    return;
  if (Id.IsString) {
    W.field("id", std::string_view(Id.Str));
    return;
  }
  // Re-emit the number exactly as sent.
  W.key("id");
  char *End = nullptr;
  long long LL = std::strtoll(Id.Str.c_str(), &End, 10);
  if (End && *End == '\0')
    W.value(static_cast<int64_t>(LL));
  else
    W.value(std::strtod(Id.Str.c_str(), nullptr));
}

/// Renders a typed error reply and records \p Code as the frame's
/// outcome (request log, resilience counters).
std::string errorResponse(std::string &Outcome, const RequestId &Id,
                          std::string_view Op, std::string_view Code,
                          std::string_view Msg) {
  Outcome = Code;
  JsonWriter W;
  W.beginObject();
  W.field("ok", false);
  writeId(W, Id);
  if (!Op.empty())
    W.field("op", Op);
  W.key("error");
  W.beginObject();
  W.field("code", Code);
  W.field("message", Msg);
  W.endObject();
  W.endObject();
  return flattenOneLine(W.take());
}

/// Thrown by request handlers; rendered as a typed error response.
struct RequestError {
  std::string Code;
  std::string Message;
};

[[noreturn]] void bad(std::string Code, std::string Msg) {
  throw RequestError{std::move(Code), std::move(Msg)};
}

//===----------------------------------------------------------------------===//
// Option parsing (shared by compile hashing and the compile op)
//===----------------------------------------------------------------------===//

bool getBool(const JsonValue &O, const char *Name, bool Def) {
  const JsonValue *V = O.member(Name);
  if (!V)
    return Def;
  if (!V->isBool())
    bad("bad-option", std::string("option '") + Name + "' must be a bool");
  return V->boolValue();
}

TransformOptions parseCompileOptions(const JsonValue *O) {
  TransformOptions Opts;
  if (!O)
    return Opts;
  if (!O->isObject())
    bad("bad-option", "'options' must be an object");
  if (const JsonValue *P = O->member("precision")) {
    if (!P->isString() ||
        (P->stringValue() != "f64" && P->stringValue() != "dd"))
      bad("bad-option", "precision must be \"f64\" or \"dd\"");
    if (P->stringValue() == "dd")
      Opts.Prec = TransformOptions::Precision::DoubleDouble;
  }
  if (const JsonValue *T = O->member("target")) {
    if (!T->isString() ||
        (T->stringValue() != "sv" && T->stringValue() != "ss"))
      bad("bad-option", "target must be \"sv\" or \"ss\"");
    Opts.ScalarLibrary = T->stringValue() == "ss";
  }
  if (const JsonValue *B = O->member("branch")) {
    if (!B->isString() || (B->stringValue() != "exception" &&
                           B->stringValue() != "join"))
      bad("bad-option", "branch must be \"exception\" or \"join\"");
    if (B->stringValue() == "join")
      Opts.Branches = TransformOptions::BranchPolicy::Join;
  }
  if (const JsonValue *L = O->member("opt_level")) {
    if (!L->isNumber() ||
        L->numberValue() != static_cast<int>(L->numberValue()) ||
        L->numberValue() < 0 || L->numberValue() > 1)
      bad("bad-option", "opt_level must be 0 or 1");
    Opts.OptLevel = static_cast<int>(L->numberValue());
  }
  Opts.EnableReductions = getBool(*O, "reductions", false);
  Opts.EnableBatchLoops = getBool(*O, "batch_loops", false);
  Opts.Profile = getBool(*O, "profile", false);
  Opts.Tier = getBool(*O, "tier", false);
  Opts.Harden = getBool(*O, "harden", false);
  if (const JsonValue *M = O->member("module")) {
    if (!M->isString())
      bad("bad-option", "module must be a string");
    Opts.ModuleName = M->stringValue();
  }
  if (Opts.Tier &&
      (Opts.Profile ||
       Opts.Prec == TransformOptions::Precision::DoubleDouble))
    bad("bad-option",
        "tier cannot be combined with profile or dd precision");
  return Opts;
}

//===----------------------------------------------------------------------===//
// Eval argument marshalling
//===----------------------------------------------------------------------===//

Interval intervalFromJson(const JsonValue &V) {
  if (V.isNumber())
    return Interval::fromPoint(V.numberValue());
  if (V.isObject()) {
    if (const JsonValue *H = V.member("hex")) {
      double D;
      if (!H->isString() || !hexToDouble(H->stringValue(), D))
        bad("bad-argument", "hex must be 16 hex digits");
      return Interval::fromPoint(D);
    }
    const JsonValue *LoH = V.member("lo_hex"), *HiH = V.member("hi_hex");
    if (LoH || HiH) {
      double Lo, Hi;
      if (!LoH || !HiH || !LoH->isString() || !HiH->isString() ||
          !hexToDouble(LoH->stringValue(), Lo) ||
          !hexToDouble(HiH->stringValue(), Hi))
        bad("bad-argument", "lo_hex/hi_hex must be 16 hex digits each");
      return Interval::fromEndpoints(Lo, Hi);
    }
    const JsonValue *Lo = V.member("lo"), *Hi = V.member("hi");
    if (Lo && Hi && Lo->isNumber() && Hi->isNumber())
      return Interval::fromEndpoints(Lo->numberValue(), Hi->numberValue());
  }
  bad("bad-argument",
      "interval argument must be a number, {lo,hi}, {hex} or "
      "{lo_hex,hi_hex}");
}

EvalArg parseEvalArg(const JsonValue &V) {
  EvalArg A;
  if (V.isObject()) {
    if (const JsonValue *I = V.member("int")) {
      if (!I->isNumber() ||
          I->numberValue() != static_cast<long long>(I->numberValue()))
        bad("bad-argument", "int argument must be an integer");
      A.K = EvalArg::Kind::Int;
      A.IntValue = static_cast<long long>(I->numberValue());
      return A;
    }
    if (const JsonValue *P = V.member("point")) {
      if (!P->isNumber())
        bad("bad-argument", "point argument must be a number");
      A.K = EvalArg::Kind::Tolerance;
      A.Point = P->numberValue();
      return A;
    }
    if (const JsonValue *Arr = V.member("array")) {
      if (!Arr->isArray())
        bad("bad-argument", "array argument must carry a JSON array");
      A.K = EvalArg::Kind::Array;
      A.Elements.reserve(Arr->arrayValue().size());
      for (const JsonValue &E : Arr->arrayValue())
        A.Elements.push_back(intervalFromJson(E));
      return A;
    }
  }
  A.K = EvalArg::Kind::Scalar;
  A.Scalar = intervalFromJson(V);
  return A;
}

void writeInterval(JsonWriter &W, const Interval &I) {
  W.beginObject();
  W.field("lo", I.lo());
  W.field("hi", I.hi());
  W.field("lo_hex", std::string_view(doubleToHex(I.lo())));
  W.field("hi_hex", std::string_view(doubleToHex(I.hi())));
  W.endObject();
}

//===----------------------------------------------------------------------===//
// Per-request fenv sentinel
//===----------------------------------------------------------------------===//

/// igen_fenv_check with a *request-local* policy: IGEN_FENV_POLICY is
/// never consulted or pinned, so concurrent tenants with different
/// policies cannot race on it, and nothing aborts or prints. Returns
/// true when the caller must poison its results. Always repairs.
bool requestFenvCheck(bool PoisonPolicy) {
  if (__builtin_expect(harden::fenvIsSoundUpward(), 1))
    return false;
  harden::repairFenv(harden::readMxcsr(), PoisonPolicy);
  return PoisonPolicy;
}

std::vector<std::string> definedFunctions(const InMemoryProgram &Prog) {
  std::vector<std::string> Out;
  if (!Prog.Ast)
    return Out;
  for (const TopLevelItem &Item : Prog.Ast->TU.Items)
    if (Item.Function && Item.Function->Body)
      Out.push_back(Item.Function->Name);
  return Out;
}

int log2Bucket(uint64_t Us) {
  int B = 0;
  while (Us > 1 && B < EndpointStats::NumBuckets - 1) {
    Us >>= 1;
    ++B;
  }
  return B;
}

uint64_t monotonicUsOf(std::chrono::steady_clock::time_point T) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             T.time_since_epoch())
      .count();
}

} // namespace

void EndpointStats::record(uint64_t Us, bool Error) {
  Count.fetch_add(1, std::memory_order_relaxed);
  if (Error)
    Errors.fetch_add(1, std::memory_order_relaxed);
  TotalUs.fetch_add(Us, std::memory_order_relaxed);
  Buckets[log2Bucket(Us)].fetch_add(1, std::memory_order_relaxed);
}

ServerCoreConfig ServerCoreConfig::fromEnv(long CacheCapacity) {
  ServerCoreConfig C;
  C.CacheCapacity = CacheCapacity;
  C.DefaultDeadlineMs = knobInt(Knob::ServeDeadline);
  std::string Warn;
  C.CacheDir = cacheDirFromSpec(knobString(Knob::ServeCacheDir), &Warn);
  if (!Warn.empty())
    warnKnobOnce(Knob::ServeCacheDir, Warn);
  C.LogPath = knobString(Knob::ServeLog);
  return C;
}

ServerCore::ServerCore(long CacheCapacity)
    : ServerCore(ServerCoreConfig::fromEnv(CacheCapacity)) {}

ServerCore::ServerCore(const ServerCoreConfig &Config)
    : Cache(Config.CacheCapacity), Persist(Config.CacheDir),
      Log(Config.LogPath), DefaultDeadlineMs(Config.DefaultDeadlineMs),
      StartTime(std::chrono::steady_clock::now()) {
  if (Persist.enabled()) {
    // Disk residency mirrors LRU residency from here on: anything the
    // in-memory cache drops is unlinked from the journal too.
    Cache.setEvictionListener(
        [this](uint64_t Hash) { Persist.remove(Hash); });
    PersistentCacheDir::ReplayStats RS =
        Persist.replay(Cache, Cache.stats().Capacity);
    CacheReplayed.store(RS.Replayed, std::memory_order_relaxed);
    if (RS.Replayed || RS.Skipped)
      Log.event("cache_replay", "replayed=" + std::to_string(RS.Replayed) +
                                    " skipped=" + std::to_string(RS.Skipped));
  }
}

void ServerCore::beginDrain() {
  bool Expected = false;
  if (Draining.compare_exchange_strong(Expected, true,
                                       std::memory_order_acq_rel))
    Log.event("drain_begin", "mutating ops now answer shutting-down");
}

ServerCore::InFlightSnapshot ServerCore::inFlight() const {
  InFlightSnapshot S;
  uint64_t Now = monotonicUsOf(std::chrono::steady_clock::now());
  for (const auto &Slot : Heartbeat) {
    uint64_t Start = Slot.load(std::memory_order_acquire);
    if (!Start)
      continue;
    ++S.Count;
    uint64_t Age = Now > Start ? Now - Start : 0;
    if (Age > S.SlowestUs)
      S.SlowestUs = Age;
  }
  return S;
}

std::string
ServerCore::handleFrame(std::string_view Frame,
                        std::chrono::steady_clock::time_point Arrival) {
  auto Start = std::chrono::steady_clock::now();

  // Heartbeat slot for the health probe's in-flight report. A full
  // table only costs visibility, never admission.
  uint64_t ArrivalUs = monotonicUsOf(Arrival);
  if (ArrivalUs == 0)
    ArrivalUs = 1;
  int Slot = -1;
  for (int I = 0; I < kHeartbeatSlots; ++I) {
    uint64_t Expected = 0;
    if (Heartbeat[I].compare_exchange_strong(Expected, ArrivalUs,
                                             std::memory_order_acq_rel)) {
      Slot = I;
      break;
    }
  }

  Endpoint E = EpInvalid;
  FrameInfo Info;
  std::string Resp;
  try {
    Resp = dispatch(Frame, Arrival, Start, E, Info);
  } catch (const std::bad_alloc &) {
    Resp = errorResponse(Info.Outcome, RequestId(), "", "internal-error",
                         "out of memory handling request");
  } catch (const std::exception &Ex) {
    Resp = errorResponse(Info.Outcome, RequestId(), "", "internal-error",
                         Ex.what());
  } catch (...) {
    Resp = errorResponse(Info.Outcome, RequestId(), "", "internal-error",
                         "unexpected exception handling request");
  }
  auto Us = (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  Ep[E].record(Us, Info.Outcome != "ok");

  if (Info.Outcome == "deadline-exceeded")
    DeadlineExceeded.fetch_add(1, std::memory_order_relaxed);
  else if (Info.Outcome == "shutting-down")
    Drained.fetch_add(1, std::memory_order_relaxed);
  if (Log.enabled())
    Log.request(Info.Verb.empty() ? std::string_view("invalid")
                                  : std::string_view(Info.Verb),
                Info.Hash, Us, Info.Outcome);

  if (Slot >= 0)
    Heartbeat[Slot].store(0, std::memory_order_release);
  return Resp;
}

std::string ServerCore::dispatch(std::string_view Frame,
                                 std::chrono::steady_clock::time_point Arrival,
                                 std::chrono::steady_clock::time_point Start,
                                 Endpoint &EpOut, FrameInfo &Info) {
  EpOut = EpInvalid;
  RequestId Id;

  if (Frame.size() > maxFrameBytes())
    return errorResponse(Info.Outcome, Id, "", "frame-too-large",
                         "request frame exceeds IGEN_SERVE_MAX_FRAME (" +
                             std::to_string(maxFrameBytes()) + " bytes)");

  JsonParseResult P = parseJson(Frame);
  if (!P.Ok)
    return errorResponse(Info.Outcome, Id, "", "bad-json",
                         P.Error + " at byte " +
                             std::to_string(P.ErrorOffset));
  const JsonValue &Req = P.Value;
  if (!Req.isObject())
    return errorResponse(Info.Outcome, Id, "", "bad-request",
                         "request must be a JSON object");

  if (const JsonValue *IdV = Req.member("id")) {
    if (IdV->isString()) {
      Id.Present = true;
      Id.IsString = true;
      Id.Str = IdV->stringValue();
    } else if (IdV->isNumber()) {
      Id.Present = true;
      Id.Str = IdV->stringValue(); // raw spelling
    } else {
      return errorResponse(Info.Outcome, Id, "", "bad-request",
                           "id must be a string or a number");
    }
  }

  const JsonValue *OpV = Req.member("op");
  if (!OpV || !OpV->isString())
    return errorResponse(Info.Outcome, Id, "", "bad-request",
                         "missing required string field 'op'");
  const std::string &Op = OpV->stringValue();
  Info.Verb = Op;

  // Clients tag re-sent frames with "retry":N so operators can see how
  // much traffic is second attempts (stats.resilience.retried). It is
  // observability only — the request is handled identically.
  if (const JsonValue *R = Req.member("retry"))
    if (R->isNumber() && R->numberValue() >= 1)
      Retried.fetch_add(1, std::memory_order_relaxed);

  // Drain gate: once draining, only observation (stats/health) and the
  // final shutdown get through; everything else is told to go away in
  // a way a retrying client understands.
  if (draining() && Op != "stats" && Op != "health" && Op != "shutdown") {
    EpOut = Op == "compile" ? EpCompile
            : Op == "eval"  ? EpEval
            : Op == "evict" ? EpEvict
                            : EpInvalid;
    return errorResponse(Info.Outcome, Id, Op, "shutting-down",
                         "daemon is draining and no longer accepts this "
                         "op; retry against a fresh instance");
  }

  try {
    // Wall-clock budget, measured from frame arrival so queue time
    // counts: request's own deadline_ms wins, IGEN_SERVE_DEADLINE fills
    // in for requests that don't send one.
    long long DeadlineMs = DefaultDeadlineMs;
    if (const JsonValue *D = Req.member("deadline_ms")) {
      if (!D->isNumber() || !(D->numberValue() > 0))
        bad("bad-request", "deadline_ms must be a positive number");
      DeadlineMs = (long long)D->numberValue();
    }
    const bool HasDeadline = DeadlineMs > 0;
    const std::chrono::steady_clock::time_point Deadline =
        Arrival + std::chrono::milliseconds(HasDeadline ? DeadlineMs : 0);
    if (Op == "compile") {
      EpOut = EpCompile;
      const JsonValue *Src = Req.member("source");
      if (!Src || !Src->isString())
        bad("bad-request", "compile requires a string 'source'");
      TransformOptions Opts = parseCompileOptions(Req.member("options"));
      Opts.SourceName = "<serve>";
      std::string Request = compileRequestBytes(Src->stringValue(), Opts);
      uint64_t Hash = hashRequestBytes(Request);
      Info.Hash = formatHandle(Hash);
      auto collision = [&] {
        bad("handle-collision",
            "handle " + Info.Hash +
                " already belongs to a different request; this one "
                "cannot be cached");
      };

      bool Cached = true;
      FunctionCache::Probe Found = Cache.lookupRequest(Hash, Request);
      if (Found.Collision)
        collision();
      std::shared_ptr<const InMemoryProgram> Prog = std::move(Found.Prog);
      if (!Prog) {
        Cached = false;
        if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
          bad("deadline-exceeded",
              "request deadline expired before compilation began");
        DiagnosticsEngine Diags;
        PipelineStage Failed = PipelineStage::None;
        PipelineCancelFn Cancel;
        if (HasDeadline)
          Cancel = [Deadline] {
            return std::chrono::steady_clock::now() >= Deadline;
          };
        auto Fresh =
            compileToProgram(Src->stringValue(), Opts, Diags, nullptr,
                             &Failed, Cancel);
        if (!Fresh && Failed == PipelineStage::Cancelled)
          bad("deadline-exceeded",
              "compilation exceeded the request's wall-clock deadline");
        if (!Fresh) {
          // Transaction rollback: the partial AST died with Fresh; the
          // cache was never touched; the daemon state is exactly as
          // before this request.
          const char *Code = Failed == PipelineStage::Parse ? "parse-error"
                             : Failed == PipelineStage::Sema
                                 ? "sema-error"
                                 : "transform-error";
          const char *Stage = Failed == PipelineStage::Parse ? "parse"
                              : Failed == PipelineStage::Sema
                                  ? "sema"
                                  : "transform";
          Info.Outcome = Code;
          JsonWriter W;
          W.beginObject();
          W.field("ok", false);
          writeId(W, Id);
          W.field("op", std::string_view("compile"));
          W.key("error");
          W.beginObject();
          W.field("code", std::string_view(Code));
          W.field("stage", std::string_view(Stage));
          W.field("message",
                  std::string_view("compilation failed; see diagnostics"));
          W.key("diagnostics");
          W.beginArray();
          for (const Diagnostic &D : Diags.diagnostics()) {
            const char *Sev = D.Severity == DiagSeverity::Error ? "error"
                              : D.Severity == DiagSeverity::Warning
                                  ? "warning"
                                  : "note";
            W.value(std::string_view(std::string(Sev) + ": " + D.Message));
          }
          W.endArray();
          W.endObject();
          W.endObject();
          return flattenOneLine(W.take());
        }
        Prog = std::shared_ptr<const InMemoryProgram>(std::move(Fresh));
        if (!Cache.insert(Hash, Prog, std::move(Request)))
          collision();
        // Journal the inputs (not the program) so a restarted daemon
        // can rebuild this entry bit-identically via the same pipeline.
        Persist.persist(Hash, Src->stringValue(), Opts);
      }

      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("compile"));
      W.field("handle", std::string_view(formatHandle(Hash)));
      W.field("cached", Cached);
      W.key("functions");
      W.beginArray();
      for (const std::string &F : definedFunctions(*Prog))
        W.value(std::string_view(F));
      W.endArray();
      W.field("emitted_bytes", (uint64_t)Prog->EmittedC.size());
      W.endObject();
      return flattenOneLine(W.take());
    }

    if (Op == "eval") {
      EpOut = EpEval;
      const JsonValue *HandleV = Req.member("handle");
      if (!HandleV || !HandleV->isString())
        bad("bad-request", "eval requires a string 'handle'");
      uint64_t Hash;
      if (!parseHandle(HandleV->stringValue(), Hash))
        bad("bad-request", "malformed handle (expected 16 hex digits)");
      Info.Hash = HandleV->stringValue();
      std::shared_ptr<const InMemoryProgram> Prog =
          Cache.lookup(Hash, /*CountMiss=*/false);
      if (!Prog)
        bad("no-such-handle",
            "handle " + HandleV->stringValue() +
                " is not resident (compile first, or it was evicted)");

      const JsonValue *FnV = Req.member("function");
      if (!FnV || !FnV->isString())
        bad("bad-request", "eval requires a string 'function'");

      std::vector<EvalArg> Args;
      if (const JsonValue *ArgsV = Req.member("args")) {
        if (!ArgsV->isArray())
          bad("bad-request", "'args' must be an array");
        Args.reserve(ArgsV->arrayValue().size());
        for (const JsonValue &A : ArgsV->arrayValue())
          Args.push_back(parseEvalArg(A));
      }

      // Per-request option isolation: the lowering (branch policy,
      // reductions, opt level) is the program's, fixed at compile time so
      // eval matches the AOT artifact; the request may set the remaining
      // knobs without touching any process global.
      EvalOptions EO;
      EO.HasDeadline = HasDeadline;
      EO.Deadline = Deadline;
      bool PoisonPolicy = false;
      double TierWidth = 0.0;
      bool HasTierWidth = false;
      if (const JsonValue *O = Req.member("options")) {
        if (!O->isObject())
          bad("bad-option", "'options' must be an object");
        // Lowering choices are compile options: an eval cannot change
        // them (a join override would run guard-derived -O ops on states
        // the exception-policy guards no longer prove).
        for (const char *Compile : {"branch", "reductions"})
          if (O->member(Compile))
            bad("bad-option", std::string("'") + Compile +
                                  "' is a compile option; compile with "
                                  "\"options\":{\"" + Compile +
                                  "\":...} instead");
        if (const JsonValue *FP = O->member("fenv_policy")) {
          if (!FP->isString())
            bad("bad-option", "fenv_policy must be a string");
          if (FP->stringValue() == "poison")
            PoisonPolicy = true;
          else if (FP->stringValue() == "repair")
            PoisonPolicy = false;
          else if (FP->stringValue() == "abort")
            bad("bad-option",
                "fenv_policy \"abort\" is not allowed in serve mode (a "
                "tenant may not terminate the daemon); use \"poison\"");
          else
            bad("bad-option",
                "fenv_policy must be \"repair\" or \"poison\"");
        }
        if (const JsonValue *TW = O->member("tier_width")) {
          if (!TW->isNumber() || !(TW->numberValue() > 0.0))
            bad("bad-option", "tier_width must be a positive number");
          TierWidth = TW->numberValue();
          HasTierWidth = true;
        }
        if (const JsonValue *SL = O->member("step_limit")) {
          if (!SL->isNumber() || SL->numberValue() < 1)
            bad("bad-option", "step_limit must be a positive integer");
          EO.StepLimit = (unsigned long long)SL->numberValue();
        }
      }

      // Sound-rounding scope for this request, with the sentinel on
      // entry (a previous tenant or foreign library may have clobbered
      // the environment after scope entry hooks ran) and again on exit
      // (to catch mid-request clobber before results ship).
      // Pre-expiry against the dispatch-entry timestamp: no extra
      // clock read on the hot path, and queue time still counts.
      if (HasDeadline && Start >= Deadline)
        bad("deadline-exceeded",
            "request deadline expired before evaluation began (queued "
            "too long)");

      EvalResult R;
      bool Poisoned = false;
      {
        RoundUpwardScope Up;
        bool EntryPoison = requestFenvCheck(PoisonPolicy);
        EvalOptions EOReq = EO;
        EOReq.PoisonedEntry = EntryPoison;
        Poisoned = EntryPoison;
        R = evalFunction(*Prog, FnV->stringValue(), Args, EOReq);
        if (requestFenvCheck(PoisonPolicy) && R.Ok) {
          // Mid-request violation under the poison policy: degrade the
          // shipped results to whole intervals (sound, never wrong).
          Poisoned = true;
          if (R.HasReturn && !R.ReturnIsInt)
            R.Return = Interval::entire();
          for (auto &Arr : R.ArrayOutputs)
            for (Interval &I : Arr)
              I = Interval::entire();
        }
      }

      EvalsServed.fetch_add(1, std::memory_order_relaxed);
      EvalOps.fetch_add(R.OpsExecuted, std::memory_order_relaxed);
      if (!R.Ok) {
        EvalErrors.fetch_add(1, std::memory_order_relaxed);
        bad(R.Error.Code, R.Error.Message);
      }
      if (Poisoned)
        EvalsPoisoned.fetch_add(1, std::memory_order_relaxed);

      bool Wide = false;
      if (HasTierWidth && R.HasReturn && !R.ReturnIsInt) {
        double Width = R.Return.hi() - R.Return.lo();
        Wide = !(Width <= TierWidth); // NaN widths count as wide
      }
      // The served lowering is the artifact's exactly when the artifact
      // is the f64 scalar-library one without tier escalation.
      bool AotExact = Prog->Opts.ScalarLibrary && !Prog->Opts.Tier &&
                      Prog->Opts.Prec == TransformOptions::Precision::Double;

      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("eval"));
      W.key("result");
      if (!R.HasReturn) {
        W.beginObject();
        W.field("kind", std::string_view("void"));
        W.endObject();
      } else if (R.ReturnIsInt) {
        W.beginObject();
        W.field("kind", std::string_view("int"));
        W.field("value", (int64_t)R.ReturnInt);
        W.endObject();
      } else {
        W.beginObject();
        W.field("kind", std::string_view("interval"));
        W.field("lo", R.Return.lo());
        W.field("hi", R.Return.hi());
        W.field("lo_hex", std::string_view(doubleToHex(R.Return.lo())));
        W.field("hi_hex", std::string_view(doubleToHex(R.Return.hi())));
        W.endObject();
      }
      W.key("arrays");
      W.beginArray();
      for (const auto &Arr : R.ArrayOutputs) {
        W.beginArray();
        for (const Interval &I : Arr)
          writeInterval(W, I);
        W.endArray();
      }
      W.endArray();
      W.field("poisoned", Poisoned);
      W.field("wide", Wide);
      W.field("aot_exact", AotExact);
      W.field("ops", (uint64_t)R.OpsExecuted);
      W.endObject();
      return flattenOneLine(W.take());
    }

    if (Op == "stats") {
      EpOut = EpStats;
      // Count this request before rendering so the report includes it.
      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("stats"));
      W.key("stats");
      {
        CacheStats CS = Cache.stats();
        W.beginObject();
        W.field("schema_version", (int64_t)2);
        W.field("report", std::string_view("igen_serve_stats"));
        W.key("cache");
        W.beginObject();
        W.field("hits", CS.Hits);
        W.field("misses", CS.Misses);
        W.field("evictions", CS.Evictions);
        W.field("insertions", CS.Insertions);
        W.field("resident", (uint64_t)CS.Resident);
        W.field("capacity", (uint64_t)CS.Capacity);
        W.endObject();
        W.key("requests");
        W.beginObject();
        static const char *Names[EpCount] = {"compile", "eval", "stats",
                                             "evict", "shutdown",
                                             "health", "invalid"};
        for (int I = 0; I < EpCount; ++I) {
          W.key(Names[I]);
          W.beginObject();
          W.field("count", Ep[I].Count.load(std::memory_order_relaxed));
          W.field("errors", Ep[I].Errors.load(std::memory_order_relaxed));
          W.endObject();
        }
        W.endObject();
        W.key("latency_us");
        W.beginObject();
        for (int I = 0; I < EpCount; ++I) {
          if (I != EpCompile && I != EpEval)
            continue; // histograms only where latency matters
          W.key(Names[I]);
          W.beginObject();
          W.field("count", Ep[I].Count.load(std::memory_order_relaxed));
          W.field("total_us",
                  Ep[I].TotalUs.load(std::memory_order_relaxed));
          W.key("log2_buckets");
          W.beginArray();
          for (const auto &B : Ep[I].Buckets)
            W.value(B.load(std::memory_order_relaxed));
          W.endArray();
          W.endObject();
        }
        W.endObject();
        W.key("evals");
        W.beginObject();
        W.field("served", EvalsServed.load(std::memory_order_relaxed));
        W.field("errors", EvalErrors.load(std::memory_order_relaxed));
        W.field("poisoned",
                EvalsPoisoned.load(std::memory_order_relaxed));
        W.field("interval_ops", EvalOps.load(std::memory_order_relaxed));
        W.endObject();
        W.key("fenv");
        {
          harden::FenvStats FS = harden::fenvStats();
          W.beginObject();
          W.field("violations", FS.Violations);
          W.field("repairs", FS.Repairs);
          W.field("poisoned", FS.Poisoned);
          W.endObject();
        }
        W.key("resilience");
        {
          InFlightSnapshot IF = inFlight();
          W.beginObject();
          W.field("state", std::string_view(draining() ? "draining"
                                                       : "serving"));
          W.field("in_flight", IF.Count);
          W.field("slowest_in_flight_us", IF.SlowestUs);
          W.field("deadline_exceeded",
                  DeadlineExceeded.load(std::memory_order_relaxed));
          W.field("retried", Retried.load(std::memory_order_relaxed));
          W.field("drained", Drained.load(std::memory_order_relaxed));
          W.field("cache_replayed",
                  CacheReplayed.load(std::memory_order_relaxed));
          W.endObject();
        }
        W.endObject();
      }
      W.endObject();
      return flattenOneLine(W.take());
    }

    if (Op == "evict") {
      EpOut = EpEvict;
      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("evict"));
      if (const JsonValue *All = Req.member("all")) {
        if (!All->isBool() || !All->boolValue())
          bad("bad-request", "'all' must be true when present");
        W.field("evicted", (uint64_t)Cache.clear());
      } else {
        const JsonValue *HandleV = Req.member("handle");
        uint64_t Hash;
        if (!HandleV || !HandleV->isString() ||
            !parseHandle(HandleV->stringValue(), Hash))
          bad("bad-request",
              "evict requires 'handle' (16 hex digits) or all:true");
        W.field("evicted", Cache.evict(Hash) ? (uint64_t)1 : (uint64_t)0);
      }
      W.endObject();
      return flattenOneLine(W.take());
    }

    if (Op == "health") {
      EpOut = EpHealth;
      InFlightSnapshot IF = inFlight();
      uint64_t UptimeUs =
          (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - StartTime)
              .count();
      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("health"));
      W.field("state",
              std::string_view(draining() ? "draining" : "serving"));
      W.field("in_flight", IF.Count);
      W.field("slowest_in_flight_us", IF.SlowestUs);
      W.field("uptime_us", UptimeUs);
      W.endObject();
      return flattenOneLine(W.take());
    }

    if (Op == "shutdown") {
      EpOut = EpShutdown;
      Shutdown.store(true, std::memory_order_release);
      Log.event("shutdown", "shutdown op received");
      JsonWriter W;
      W.beginObject();
      W.field("ok", true);
      writeId(W, Id);
      W.field("op", std::string_view("shutdown"));
      W.endObject();
      return flattenOneLine(W.take());
    }

    return errorResponse(Info.Outcome, Id, Op, "bad-request",
                         "unknown op '" + Op +
                             "' (expected compile|eval|stats|evict|"
                             "health|shutdown)");
  } catch (const RequestError &RE) {
    const char *OpName = EpOut == EpCompile   ? "compile"
                         : EpOut == EpEval    ? "eval"
                         : EpOut == EpStats   ? "stats"
                         : EpOut == EpEvict   ? "evict"
                         : EpOut == EpShutdown ? "shutdown"
                         : EpOut == EpHealth   ? "health"
                                               : "";
    return errorResponse(Info.Outcome, Id, OpName, RE.Code, RE.Message);
  }
}
