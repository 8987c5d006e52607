//===- OptkDdO1Tu.cpp - Wrap the dd -O build of Inputs/optk.c -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Inputs/optk.c compiled with --precision=dd at both optimization
// levels; renaming the functions lets one test binary link both builds
// and compare their results bit for bit.
//
//===----------------------------------------------------------------------===//

#define opt_horner opt_horner_dd1
#define opt_pade opt_pade_dd1
#define opt_henon opt_henon_dd1
#define opt_invsq opt_invsq_dd1
#define opt_negsq opt_negsq_dd1
#define opt_elem opt_elem_dd1
#define opt_cse opt_cse_dd1
#define opt_gemm opt_gemm_dd1
#define opt_axpy opt_axpy_dd1
#define opt_axmy opt_axmy_dd1
#define opt_scale opt_scale_dd1
#define opt_mvm opt_mvm_dd1
#define opt_ffnn_row opt_ffnn_row_dd1
#define opt_potrf_diag opt_potrf_diag_dd1

#include "optk_dd_O1.cpp"
