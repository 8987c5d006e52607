//===- ServeOptTu.cpp - Wrap the -O --target=ss serve-compare kernels ------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The -O builds of the serve-compare inputs define the same function names
// as their -O0 builds; namespace `opt` keeps both in one test binary. The
// runtime header is included first, so each generated file's own include
// of it is a no-op inside the namespace.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"

#include <immintrin.h>

namespace opt {
#include "servek_ss_O.cpp"
#include "servetrig_ss_O.cpp"
#include "servejoin_ss_O.cpp"
#include "serveoptk_ss_O.cpp"
} // namespace opt
