//===- PersistCache.cpp - Crash-recoverable compile-cache journal ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/PersistCache.h"

#include "server/FunctionCache.h"
#include "server/Json.h"
#include "support/Diagnostics.h"
#include "support/JsonWriter.h"
#include "support/Knobs.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace igen;
using namespace igen::server;

namespace {

constexpr int kEntrySchema = 1;
constexpr const char *kEntrySuffix = ".igenc";

bool readWholeFile(const std::string &Path, std::string &Out,
                   size_t MaxBytes = 8u << 20) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  char Buf[16384];
  size_t N;
  bool Ok = true;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0) {
    Out.append(Buf, N);
    if (Out.size() > MaxBytes) { // pathological entry; treat as corrupt
      Ok = false;
      break;
    }
  }
  std::fclose(F);
  return Ok;
}

std::string getString(const JsonValue &O, std::string_view Key) {
  const JsonValue *V = O.member(Key);
  return V && V->isString() ? V->stringValue() : "";
}

bool getBool(const JsonValue &O, std::string_view Key) {
  const JsonValue *V = O.member(Key);
  return V && V->isBool() && V->boolValue();
}

/// Reconstructs the semantic compile options from a journal entry's
/// "options" object. Mirrors serializeOptions below and the serve
/// protocol's parseCompileOptions: any field this forgets would make
/// the recomputed hash diverge and the entry read as stale.
bool optionsFromJson(const JsonValue &O, TransformOptions &Opts) {
  if (!O.isObject())
    return false;
  if (getString(O, "precision") == "dd")
    Opts.Prec = TransformOptions::Precision::DoubleDouble;
  Opts.ScalarLibrary = getString(O, "target") == "ss";
  if (getString(O, "branch") == "join")
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  const JsonValue *Opt = O.member("opt_level");
  if (Opt && Opt->isNumber())
    Opts.OptLevel = (int)Opt->numberValue();
  Opts.EnableReductions = getBool(O, "reductions");
  Opts.EnableBatchLoops = getBool(O, "batch_loops");
  Opts.Profile = getBool(O, "profile");
  Opts.Tier = getBool(O, "tier");
  Opts.Harden = getBool(O, "harden");
  Opts.ModuleName = getString(O, "module");
  const JsonValue *Rh = O.member("runtime_header");
  if (Rh && Rh->isString())
    Opts.RuntimeHeader = Rh->stringValue();
  return true;
}

void serializeOptions(JsonWriter &W, const TransformOptions &Opts) {
  W.beginObject();
  W.field("precision",
          std::string_view(Opts.Prec == TransformOptions::Precision::DoubleDouble
                               ? "dd"
                               : "f64"));
  W.field("target", std::string_view(Opts.ScalarLibrary ? "ss" : "sv"));
  W.field("branch",
          std::string_view(Opts.Branches == TransformOptions::BranchPolicy::Join
                               ? "join"
                               : "exception"));
  W.field("opt_level", Opts.OptLevel);
  W.field("reductions", Opts.EnableReductions);
  W.field("batch_loops", Opts.EnableBatchLoops);
  W.field("profile", Opts.Profile);
  W.field("tier", Opts.Tier);
  W.field("harden", Opts.Harden);
  W.field("module", std::string_view(Opts.ModuleName));
  W.field("runtime_header", std::string_view(Opts.RuntimeHeader));
  W.endObject();
}

} // namespace

std::string igen::server::cacheDirFromSpec(const char *Spec,
                                           std::string *Warning) {
  if (!Spec || !*Spec)
    return "";
  std::string Dir(Spec);
  while (Dir.size() > 1 && Dir.back() == '/')
    Dir.pop_back();
  std::string Why;
  struct stat St;
  if (::mkdir(Dir.c_str(), 0777) != 0 && errno != EEXIST)
    Why = std::string("cannot create it: ") + std::strerror(errno);
  else if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    Why = "not a directory";
  else if (::access(Dir.c_str(), W_OK | X_OK) != 0)
    Why = "not writable";
  else
    return Dir;
  if (Warning)
    *Warning = knobWarning(Knob::ServeCacheDir, "unusable", Dir, Why);
  return "";
}

std::string PersistentCacheDir::pathFor(uint64_t Hash) const {
  return Dir + "/" + formatHandle(Hash) + kEntrySuffix;
}

void PersistentCacheDir::persist(uint64_t Hash, std::string_view Source,
                                 const TransformOptions &Opts) {
  if (Dir.empty())
    return;

  JsonWriter W;
  W.beginObject();
  W.field("schema", kEntrySchema);
  W.field("hash", std::string_view(formatHandle(Hash)));
  W.field("source", Source);
  W.key("options");
  serializeOptions(W, Opts);
  W.endObject();
  std::string Body = W.take();

  // Write-then-rename in the same directory: the entry becomes visible
  // atomically, so a crash mid-write can only lose this entry, never
  // corrupt the journal.
  std::string Tmp =
      Dir + "/.tmp-" + formatHandle(Hash) + "-" + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  bool Ok = Fd >= 0;
  if (Ok) {
    size_t Off = 0;
    while (Off < Body.size()) {
      ssize_t N = ::write(Fd, Body.data() + Off, Body.size() - Off);
      if (N <= 0) {
        Ok = false;
        break;
      }
      Off += (size_t)N;
    }
    if (Ok && ::fsync(Fd) != 0)
      Ok = false;
    ::close(Fd);
  }
  if (Ok && ::rename(Tmp.c_str(), pathFor(Hash).c_str()) != 0)
    Ok = false;
  if (!Ok) {
    ::unlink(Tmp.c_str());
    if (!WarnedPersist) {
      WarnedPersist = true;
      std::fprintf(stderr,
                   "igen: serve: warning: cannot journal compile cache "
                   "entry under '%s' (%s); continuing without "
                   "persistence for failed entries\n",
                   Dir.c_str(), std::strerror(errno));
    }
  }
}

void PersistentCacheDir::remove(uint64_t Hash) {
  if (Dir.empty())
    return;
  ::unlink(pathFor(Hash).c_str());
}

PersistentCacheDir::ReplayStats
PersistentCacheDir::replay(FunctionCache &Cache, size_t MaxEntries) {
  ReplayStats Stats;
  if (Dir.empty())
    return Stats;

  struct File {
    std::string Name;
    time_t Mtime;
  };
  std::vector<File> Files;

  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Stats;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() != 16 + std::strlen(kEntrySuffix) ||
        Name.compare(16, std::string::npos, kEntrySuffix) != 0)
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    Files.push_back({std::move(Name), St.st_mtime});
  }
  ::closedir(D);

  // Oldest first so the newest entries land most-recent in the LRU; when
  // the journal outgrew the cache cap (e.g. the cap shrank between
  // runs), only the newest MaxEntries are replayed.
  std::sort(Files.begin(), Files.end(),
            [](const File &A, const File &B) { return A.Mtime < B.Mtime; });
  if (Files.size() > MaxEntries)
    Files.erase(Files.begin(), Files.end() - (ptrdiff_t)MaxEntries);

  auto Skip = [&](const std::string &Name, const char *Why) {
    ++Stats.Skipped;
    if (!WarnedReplay) {
      WarnedReplay = true;
      std::fprintf(stderr,
                   "igen: serve: warning: skipping cache entry '%s/%s' "
                   "(%s); further skips are silent\n",
                   Dir.c_str(), Name.c_str(), Why);
    }
  };

  for (const File &F : Files) {
    std::string Body;
    if (!readWholeFile(Dir + "/" + F.Name, Body)) {
      Skip(F.Name, "unreadable");
      continue;
    }
    JsonParseResult P = parseJson(Body);
    if (!P.Ok || !P.Value.isObject()) {
      Skip(F.Name, "corrupt JSON");
      continue;
    }
    const JsonValue *Schema = P.Value.member("schema");
    if (!Schema || !Schema->isNumber() ||
        (int)Schema->numberValue() != kEntrySchema) {
      Skip(F.Name, "unknown schema");
      continue;
    }
    const JsonValue *Src = P.Value.member("source");
    const JsonValue *OptsV = P.Value.member("options");
    TransformOptions Opts;
    if (!Src || !Src->isString() || !OptsV ||
        !optionsFromJson(*OptsV, Opts)) {
      Skip(F.Name, "missing source/options");
      continue;
    }
    Opts.SourceName = "<serve>";

    // Staleness gate: the filename must still be the content hash of
    // what we are about to compile. A renamed file, a hash-function
    // change, or a truncated source all fail here.
    uint64_t Expected;
    std::string Request = compileRequestBytes(Src->stringValue(), Opts);
    if (!parseHandle(std::string_view(F.Name).substr(0, 16), Expected) ||
        hashRequestBytes(Request) != Expected) {
      Skip(F.Name, "stale (content hash mismatch)");
      continue;
    }

    DiagnosticsEngine Diags;
    auto Prog = compileToProgram(Src->stringValue(), Opts, Diags);
    if (!Prog) {
      Skip(F.Name, "no longer compiles");
      continue;
    }
    Cache.insert(Expected,
                 std::shared_ptr<const InMemoryProgram>(std::move(Prog)),
                 std::move(Request));
    ++Stats.Replayed;
  }
  return Stats;
}
