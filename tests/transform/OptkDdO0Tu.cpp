//===- OptkDdO0Tu.cpp - Wrap the dd -O0 build of Inputs/optk.c ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#define opt_horner opt_horner_dd0
#define opt_pade opt_pade_dd0
#define opt_henon opt_henon_dd0
#define opt_invsq opt_invsq_dd0
#define opt_negsq opt_negsq_dd0
#define opt_elem opt_elem_dd0
#define opt_cse opt_cse_dd0
#define opt_gemm opt_gemm_dd0
#define opt_axpy opt_axpy_dd0
#define opt_axmy opt_axmy_dd0
#define opt_scale opt_scale_dd0
#define opt_mvm opt_mvm_dd0
#define opt_ffnn_row opt_ffnn_row_dd0
#define opt_potrf_diag opt_potrf_diag_dd0

#include "optk_dd_O0.cpp"
