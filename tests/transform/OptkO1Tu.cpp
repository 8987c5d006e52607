//===- OptkO1Tu.cpp - Wrap the -O build of Inputs/optk.c ---------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The same input is compiled by the igen driver at both optimization
// levels; renaming the functions lets one test binary link both builds
// and compare their enclosures.
//
//===----------------------------------------------------------------------===//

#define opt_horner opt_horner_O1
#define opt_pade opt_pade_O1
#define opt_henon opt_henon_O1
#define opt_invsq opt_invsq_O1
#define opt_negsq opt_negsq_O1
#define opt_elem opt_elem_O1
#define opt_cse opt_cse_O1
#define opt_gemm opt_gemm_O1
#define opt_axpy opt_axpy_O1
#define opt_axmy opt_axmy_O1
#define opt_scale opt_scale_O1
#define opt_mvm opt_mvm_O1
#define opt_ffnn_row opt_ffnn_row_O1
#define opt_potrf_diag opt_potrf_diag_O1

#include "optk_O1.cpp"
