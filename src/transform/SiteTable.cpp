//===- SiteTable.cpp - Compile-time site/region tables --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/SiteTable.h"

#include "support/JsonWriter.h"

#include <cstdio>

using namespace igen;

std::string igen::siteSidecarJson(const SiteTable &Table) {
  JsonWriter W;
  W.beginObject();
  W.field("schema_version", 1);
  W.field("report", "igen_sites");
  W.field("module", Table.Module);
  W.field("source_file", Table.SourceFile);
  W.key("sites");
  W.beginArray();
  for (size_t I = 0; I < Table.Sites.size(); ++I) {
    const ProfileSite &S = Table.Sites[I];
    W.beginObject();
    W.field("id", static_cast<uint64_t>(I));
    W.field("op", S.Op);
    W.field("func", S.Func);
    W.field("line", static_cast<uint64_t>(S.Line));
    W.field("col", static_cast<uint64_t>(S.Col));
    W.field("text", S.Text);
    W.endObject();
  }
  W.endArray();
  if (!Table.Regions.empty()) {
    W.key("regions");
    W.beginArray();
    for (size_t I = 0; I < Table.Regions.size(); ++I) {
      const TierRegion &R = Table.Regions[I];
      W.beginObject();
      W.field("id", static_cast<uint64_t>(I));
      W.field("func", R.Func);
      W.field("line", static_cast<uint64_t>(R.Line));
      W.field("movable", R.Movable);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  return W.take();
}

bool igen::writeSiteSidecar(const std::string &Path, const SiteTable &Table) {
  std::string Text = siteSidecarJson(Table);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return (std::fclose(F) == 0) && Ok;
}
