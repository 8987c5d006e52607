//===- Profile.cpp - Interval-width profiler runtime ----------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

#include "interval/Rounding.h"
#include "support/JsonWriter.h"
#include "support/Knobs.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace {

//===----------------------------------------------------------------------===//
// Order-independent accumulation of relative widths
//===----------------------------------------------------------------------===//

/// Deterministic fixed-point sum of non-negative doubles bounded by a
/// small constant (relative widths never exceed ~2). Each value is
/// truncated to a multiple of 2^-80 — far below any meaningful relative
/// width, so the mean loses nothing observable — and accumulated into a
/// single 128-bit integer. Quantization is a pure function of the value
/// and integer addition is commutative and associative, so the
/// thread-buffer merge is bit-identical regardless of how records were
/// partitioned across threads; a double-rounding accumulator would
/// depend on merge order. One two-word add per insertion also keeps the
/// flush loop's dependency chain short, where an earlier multiword
/// exact accumulator dominated the profiling overhead.
///
/// Capacity: values < 4 are < 2^82 units; 128 bits leave 2^46
/// insertions of headroom before overflow.
class RelwSum {
public:
  void clear() { V = 0; }

  /// Accumulates \p X truncated to units of 2^-80. Requires
  /// 0 <= X < 4 and X finite.
  void add(double X) {
    uint64_t Bits;
    std::memcpy(&Bits, &X, sizeof(Bits));
    int Exp = static_cast<int>((Bits >> 52) & 0x7FF);
    uint64_t Mant = Bits & ((uint64_t{1} << 52) - 1);
    if (Exp != 0)
      Mant |= uint64_t{1} << 52; // normal: value = Mant * 2^(Exp-1075)
    else
      Exp = 1; // subnormal: same scale, no implicit bit
    // Units of 2^-80: Mant * 2^(Exp-1075+80). Right shifts truncate;
    // anything below one unit (X < ~2^-108) contributes zero.
    int Sh = Exp - 995;
    if (Sh >= 0)
      V += static_cast<unsigned __int128>(Mant) << Sh;
    else if (Sh > -64)
      V += Mant >> -Sh;
  }

  /// Folds another sum into this one (integer add).
  void merge(const RelwSum &O) { V += O.V; }

  /// Nearest double of the represented value. Deterministic: a pure
  /// function of the integer state.
  double toDouble() const {
    return std::ldexp(static_cast<double>(static_cast<uint64_t>(V >> 64)),
                      64 - 80) +
           std::ldexp(static_cast<double>(static_cast<uint64_t>(V)), -80);
  }

private:
  unsigned __int128 V = 0;
};

//===----------------------------------------------------------------------===//
// Per-thread buffers and the global registry
//===----------------------------------------------------------------------===//

struct SiteStats {
  uint64_t Count = 0;
  uint64_t NanCount = 0;
  uint64_t WholeCount = 0;
  uint64_t GrowthBits = 0;
  double MaxRelW = 0.0;
  /// Worst out-vs-in growth as a binade-exponent difference (the
  /// reported ratio is 2^MaxGrowthE); INT_MIN = none attributable.
  int MaxGrowthE = INT_MIN;
  RelwSum SumRelW;

  SiteStats() { SumRelW.clear(); }

  void clear() { *this = SiteStats(); }

  /// All fields are integer sums, integer/floating maxima or
  /// order-independent fixed-point sums: merging is commutative and
  /// associative, hence deterministic.
  void merge(const SiteStats &O) {
    Count += O.Count;
    NanCount += O.NanCount;
    WholeCount += O.WholeCount;
    GrowthBits += O.GrowthBits;
    MaxRelW = std::fmax(MaxRelW, O.MaxRelW);
    MaxGrowthE = std::max(MaxGrowthE, O.MaxGrowthE);
    SumRelW.merge(O.SumRelW);
  }
};

struct ThreadBuf {
  igen::prof::detail::RecordRing Ring;
  std::vector<SiteStats> Stats;
};

struct Registry {
  struct ModuleInfo {
    std::string Name, Source;
    uint32_t FirstSite = 0, NumSites = 0;
  };
  struct SiteInfo {
    std::string Op, Func, Text;
    uint32_t Line = 0, Col = 0, Module = 0;
  };

  std::mutex Mu;
  std::vector<ModuleInfo> Modules;
  std::vector<SiteInfo> Sites;
  /// Owns every thread's buffer: buffers outlive their threads so late
  /// merges stay valid, and they are never removed (only reset).
  std::vector<std::unique_ptr<ThreadBuf>> Bufs;
  bool ExitHookInstalled = false;

  /// Leaked on purpose: records and the atexit report hook may run during
  /// static destruction, after a function-local static would be gone.
  static Registry &get() {
    static Registry *R = new Registry;
    return *R;
  }
};

thread_local ThreadBuf *TlsBuf = nullptr;

ThreadBuf *attachThreadBufLocked(Registry &R) {
  R.Bufs.push_back(std::make_unique<ThreadBuf>());
  TlsBuf = R.Bufs.back().get();
  TlsBuf->Stats.resize(R.Sites.size());
  igen::prof::detail::Tls.Ring = &TlsBuf->Ring;
  return TlsBuf;
}

/// The statistics fold for one queued record (registry lock held, buffer
/// sized). Rounding-mode sensitive: callers pin round-to-nearest around
/// the whole batch so a record's contribution does not depend on which
/// flush processed it.
void recordInto(SiteStats &S, int InRelWE, double OutLo, double OutHi) {
  double W = OutHi - OutLo;
  // One branch classifies every escape: W is NaN when an endpoint is NaN
  // (or both are the same infinity), infinite when the result is
  // unbounded, negative only for inverted (unsound) enclosures.
  if (__builtin_expect(!(W >= 0.0) || W == HUGE_VAL, 0)) {
    if (std::isnan(OutLo) || std::isnan(OutHi))
      ++S.NanCount;
    else
      ++S.WholeCount; // unbounded (or inverted, impossible if sound)
    return;
  }
  ++S.Count;
  if (W == 0.0)
    return; // point result: relative width 0 contributes nothing
  // W finite and nonzero implies both endpoints finite, Mag >= W/2 > 0.
  double Mag = std::fmax(std::fabs(OutLo), std::fabs(OutHi));
  double RelW = W / Mag;
  if (RelW > S.MaxRelW)
    S.MaxRelW = RelW;
  S.SumRelW.add(RelW);
  // Growth attribution: how many binary orders of magnitude wider (in
  // relative terms) the result is than the widest input, at binade
  // resolution (integer exponent arithmetic; no divisions). Point/NaN
  // inputs (RELW_NONE) have no base width to grow from; unbounded
  // inputs (RELW_WHOLE) cannot be blamed for downstream width.
  if (InRelWE > IGEN_PROF_RELW_NONE && InRelWE < IGEN_PROF_RELW_WHOLE) {
    int D = (igen_prof_ilogb_(W) - igen_prof_ilogb_(Mag)) - InRelWE;
    if (D > S.MaxGrowthE)
      S.MaxGrowthE = D;
    if (D > 0)
      S.GrowthBits += static_cast<uint64_t>(D);
  }
}

/// Drains \p B's ring into its per-site statistics. Requires \p R's lock
/// to be held; safe for both the owning thread (ring full) and a
/// reporting thread (idle ring residue at snapshot/report time).
void flushRingLocked(ThreadBuf *B, Registry &R) {
  igen::prof::detail::RecordRing &Ring = B->Ring;
  if (Ring.N == 0)
    return;
  igen::RoundNearestScope RN;
  for (uint32_t I = 0; I < Ring.N; ++I) {
    const igen::prof::detail::RingEntry &E = Ring.E[I];
    if (E.Site >= B->Stats.size()) {
      if (E.Site >= R.Sites.size())
        continue; // unregistered site: drop
      B->Stats.resize(R.Sites.size());
    }
    // Widest input's relative-width binade exponent, from the raw
    // {negated lo, hi} operand pairs the wrapper stashed.
    int InE = IGEN_PROF_RELW_NONE;
    for (uint32_t K = 0; K < E.NIn; ++K) {
      int Ek = igen_prof_relw_e(-E.V[2 * K + 2], E.V[2 * K + 3]);
      if (Ek > InE)
        InE = Ek;
    }
    recordInto(B->Stats[E.Site], InE, -E.V[0], E.V[1]);
  }
  Ring.N = 0;
}

void atExitReport() {
  const char *Path = igen::knobString(igen::Knob::ProfOut);
  if (!*Path)
    return;
  if (igen_prof_report_json(Path) != 0)
    std::fprintf(stderr, "igen: cannot write IGEN_PROF_OUT='%s'\n", Path);
}

} // namespace

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

namespace igen::prof::detail {

void recordSlow(const RingEntry &E) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.Mu);
  ThreadBuf *B = TlsBuf;
  if (!B)
    B = attachThreadBufLocked(R);
  flushRingLocked(B, R);
  B->Ring.E[B->Ring.N++] = E;
}

} // namespace igen::prof::detail

//===----------------------------------------------------------------------===//
// C API
//===----------------------------------------------------------------------===//

extern "C" unsigned igen_prof_register_sites(const char *Module,
                                             const char *SourceFile,
                                             const igen_prof_site *Sites,
                                             unsigned N) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.Mu);
  unsigned Base = static_cast<unsigned>(R.Sites.size());
  Registry::ModuleInfo M;
  M.Name = Module ? Module : "";
  M.Source = SourceFile ? SourceFile : "";
  M.FirstSite = Base;
  M.NumSites = N;
  uint32_t ModIdx = static_cast<uint32_t>(R.Modules.size());
  R.Modules.push_back(std::move(M));
  for (unsigned I = 0; I < N; ++I) {
    Registry::SiteInfo S;
    S.Op = Sites[I].op ? Sites[I].op : "";
    S.Func = Sites[I].func ? Sites[I].func : "";
    S.Text = Sites[I].text ? Sites[I].text : "";
    S.Line = Sites[I].line;
    S.Col = Sites[I].col;
    S.Module = ModIdx;
    R.Sites.push_back(std::move(S));
  }
  if (!R.ExitHookInstalled) {
    R.ExitHookInstalled = true;
    std::atexit(atExitReport);
  }
  return Base;
}

extern "C" void igen_prof_reset(void) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.Mu);
  for (auto &B : R.Bufs) {
    B->Ring.N = 0;
    for (SiteStats &S : B->Stats)
      S.clear();
  }
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

namespace igen::prof {

std::vector<SiteReport> snapshot() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.Mu);
  // Pin the rounding mode: snapshot() may be called from inside an upward
  // rounding scope (kernel code) or outside one; the derived means and
  // ratios must not depend on the caller's FPU state.
  RoundNearestScope RN;

  // Drain every thread's queued-but-unfolded records first. The contract
  // (as for reset) is that no thread records concurrently; idle worker
  // threads may well hold ring residue from their last task.
  for (const auto &B : R.Bufs)
    flushRingLocked(B.get(), R);

  size_t N = R.Sites.size();
  std::vector<SiteStats> Merged(N);
  for (const auto &B : R.Bufs)
    for (size_t I = 0; I < B->Stats.size() && I < N; ++I)
      Merged[I].merge(B->Stats[I]);

  std::vector<SiteReport> Out(N);
  for (size_t I = 0; I < N; ++I) {
    const Registry::SiteInfo &Info = R.Sites[I];
    SiteReport &S = Out[I];
    S.Id = static_cast<uint32_t>(I);
    S.Module = R.Modules[Info.Module].Name;
    S.Op = Info.Op;
    S.Func = Info.Func;
    S.Text = Info.Text;
    S.Line = Info.Line;
    S.Col = Info.Col;
    S.Count = Merged[I].Count;
    S.NanCount = Merged[I].NanCount;
    S.WholeCount = Merged[I].WholeCount;
    S.GrowthBits = Merged[I].GrowthBits;
    S.MaxRelW = Merged[I].MaxRelW;
    S.MaxGrowth = Merged[I].MaxGrowthE == INT_MIN
                      ? 0.0
                      : std::ldexp(1.0, Merged[I].MaxGrowthE);
    S.MeanRelW = S.Count == 0
                     ? 0.0
                     : Merged[I].SumRelW.toDouble() /
                           static_cast<double>(S.Count);
  }
  // Blowup attribution order: total contributed growth first, busiest
  // site breaking ties, site ID as the final deterministic tiebreak.
  std::sort(Out.begin(), Out.end(),
            [](const SiteReport &A, const SiteReport &B) {
              if (A.GrowthBits != B.GrowthBits)
                return A.GrowthBits > B.GrowthBits;
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return A.Id < B.Id;
            });
  return Out;
}

std::string reportText() {
  std::vector<SiteReport> Sites = snapshot();
  std::string Out;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "igen precision profile: %zu site(s)\n"
                "%5s %-10s %10s %10s %10s %10s %8s %7s  %s\n",
                Sites.size(), "rank", "op", "count", "mean-relw",
                "max-relw", "max-growth", "grw-bits", "escapes",
                "where");
  Out += Buf;
  unsigned Rank = 0;
  for (const SiteReport &S : Sites) {
    ++Rank;
    std::snprintf(Buf, sizeof(Buf),
                  "%5u %-10s %10llu %10.3e %10.3e %10.3e %8llu %7llu  "
                  "%s:%u:%u (%s) %s\n",
                  Rank, S.Op.c_str(),
                  static_cast<unsigned long long>(S.Count), S.MeanRelW,
                  S.MaxRelW, S.MaxGrowth,
                  static_cast<unsigned long long>(S.GrowthBits),
                  static_cast<unsigned long long>(S.NanCount +
                                                  S.WholeCount),
                  S.Module.c_str(), S.Line, S.Col, S.Func.c_str(),
                  S.Text.c_str());
    Out += Buf;
  }
  return Out;
}

std::string reportJson() {
  std::vector<SiteReport> Sites = snapshot();
  Registry &R = Registry::get();
  igen::JsonWriter J;
  J.beginObject();
  J.field("schema_version", 1);
  J.field("report", "igen_profile");
  {
    std::lock_guard<std::mutex> L(R.Mu);
    J.key("modules");
    J.beginArray();
    for (const Registry::ModuleInfo &M : R.Modules) {
      J.beginObject();
      J.field("module", M.Name);
      J.field("source_file", M.Source);
      J.field("first_site", M.FirstSite);
      J.field("num_sites", M.NumSites);
      J.endObject();
    }
    J.endArray();
  }
  J.key("sites");
  J.beginArray();
  unsigned Rank = 0;
  for (const SiteReport &S : Sites) {
    J.beginObject();
    J.field("rank", ++Rank);
    J.field("id", S.Id);
    J.field("module", S.Module);
    J.field("op", S.Op);
    J.field("func", S.Func);
    J.field("line", S.Line);
    J.field("col", S.Col);
    J.field("text", S.Text);
    J.field("count", S.Count);
    J.field("nan_escapes", S.NanCount);
    J.field("whole_escapes", S.WholeCount);
    J.field("growth_bits", S.GrowthBits);
    J.field("max_rel_width", S.MaxRelW);
    J.field("mean_rel_width", S.MeanRelW);
    J.field("max_growth_ratio", S.MaxGrowth);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  return J.take();
}

} // namespace igen::prof

extern "C" void igen_prof_report(FILE *OutFile) {
  std::string Text = igen::prof::reportText();
  std::fputs(Text.c_str(), OutFile ? OutFile : stderr);
}

extern "C" int igen_prof_report_json(const char *Path) {
  std::string Doc = igen::prof::reportJson();
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return 1;
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return (std::fclose(F) == 0 && Ok) ? 0 : 1;
}
