//===- OptkO0Tu.cpp - Wrap the -O0 build of Inputs/optk.c --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#define opt_horner opt_horner_O0
#define opt_pade opt_pade_O0
#define opt_henon opt_henon_O0
#define opt_invsq opt_invsq_O0
#define opt_negsq opt_negsq_O0
#define opt_elem opt_elem_O0
#define opt_cse opt_cse_O0
#define opt_gemm opt_gemm_O0
#define opt_axpy opt_axpy_O0
#define opt_axmy opt_axmy_O0
#define opt_scale opt_scale_O0
#define opt_mvm opt_mvm_O0
#define opt_ffnn_row opt_ffnn_row_O0
#define opt_potrf_diag opt_potrf_diag_O0

#include "optk_O0.cpp"
