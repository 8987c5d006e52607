//===- SiteTable.h - Compile-time site/region tables ------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time tables shared by `igen --profile` and `igen --tier`.
/// Both features assign small integer IDs at emission time — per
/// instrumented interval operation (profile sites) and per escalation
/// region (tier regions) — and both need the same two services:
///
///  * a single renumbering pass after optimizer rewrites: FMA fusion and
///    sign specialization lower (and thereby number) operands before
///    deciding to replace them, which can orphan an ID; the emitted tables
///    must only describe entries whose IDs survive in the final lowered
///    form (the transformer renumbers them there, one function at a time);
///  * one sidecar-JSON writer, so the `<output>.sites.json` format has
///    exactly one producer regardless of which feature requested it
///    (writeSiteSidecar / siteSidecarJson).
///
/// The transformer embeds the same tables into the generated TU as static
/// igen_prof_site / igen_tier_region arrays, so runtime reports are
/// self-describing; the sidecar lets tooling map IDs back to source
/// without executing anything.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_SITETABLE_H
#define IGEN_TRANSFORM_SITETABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace igen {

/// One instrumented operation (--profile). IDs are the vector index,
/// assigned in emission order; sign-specialized and FMA-fused rewrites
/// reuse the source operation's location, so a site survives optimizer
/// rewrites.
struct ProfileSite {
  std::string Op;       ///< runtime op ("mul", "fma_pu", "sub", ...)
  std::string Func;     ///< enclosing source function
  std::string Text;     ///< unparsed source expression
  uint32_t Line = 0;    ///< 1-based source line (0 = unknown)
  uint32_t Col = 0;     ///< 1-based source column
};

/// One escalation region (--tier). Currently a region is a whole tiered
/// function body; IDs are the vector index in emission order.
struct TierRegion {
  std::string Func;     ///< source function delimiting the region
  uint32_t Line = 0;    ///< 1-based source line of the function
  bool Movable = true;  ///< false: result provably cannot improve at ddi
};

/// The per-TU table the transformer fills and the driver serializes.
struct SiteTable {
  std::string Module;     ///< module name registered with the runtime
  std::string SourceFile; ///< original input path
  std::vector<ProfileSite> Sites;   ///< --profile operation sites
  std::vector<TierRegion> Regions;  ///< --tier escalation regions
};

/// Historical name from when --profile was the only table producer.
using ProfileSiteTable = SiteTable;

/// The `<output>.sites.json` sidecar document for \p Table: schema_version
/// 1, report "igen_sites", a "sites" array (always) and a "regions" array
/// (only when the table has tier regions, keeping pre-tier consumers
/// working unchanged).
std::string siteSidecarJson(const SiteTable &Table);

/// Writes siteSidecarJson(\p Table) to \p Path; false on I/O failure.
bool writeSiteSidecar(const std::string &Path, const SiteTable &Table);

} // namespace igen

#endif // IGEN_TRANSFORM_SITETABLE_H
