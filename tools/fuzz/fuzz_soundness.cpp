//===- fuzz_soundness.cpp - End-to-end interval soundness fuzzer ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Differential fuzz target for the soundness property itself: the input
// bytes encode a random straight-line expression program over the f64i
// runtime API (the exact ia_*_f64 calls `igen --target=ss` emits), which
// is evaluated twice --
//
//   * with the interval runtime under upward rounding, and
//   * with a __float128 oracle (113-bit mantissa) carrying a rigorous
//     absolute-error bound A alongside each value, so chained rounding
//     and libm approximation error in the oracle itself can never
//     produce a false alarm;
//
// any oracle value provably outside the computed interval (by more than
// its own error bound) is a containment violation: the one bug class
// this project exists to rule out. Violations print the failing program
// and trap -- crash-severity under libFuzzer.
//
// Program encoding (one byte per field, stream consumed left to right):
//   [0..31]   four little-endian doubles seeding registers r0..r3
//   then repeating: opcode byte, then 1-2 register bytes (mod 8); binary
//   ops write to a destination register chosen by the opcode byte's high
//   bits. The register file has 8 slots; programs run at most 48 ops.
//   Opcode bytes 240..255 select the entry points -O emits beyond the
//   generic calls, each followed by one operand byte X:
//     240      axpy: r[k] = r[k] + a * r[off + k], k < n, through
//              ia_axpy_f64 (a = r[X % 8], n = 1 + X/8 % 4, off = X/32 % 5:
//              the rows are identical, overlap or are disjoint)
//     241/242  dot/sub: r[d] = r[d] +- r[k] * r[off + k], k < n, in order,
//              through ia_dot_f64/ia_dotsub_f64 on &r[d] (d = X % 8,
//              which may lie inside either row)
//     243..246 fma_pu/nu, mul_pu/nu
//     247..252 mul_pp/pn/nn, fma_pp/pn/nn
//     253/254  div_p/div_n
//     255      the generic ia_div_f64
//              Each sign-specialized op runs behind the run-time sign test
//              its precondition needs (the one the emitted code makes),
//              else the generic op. Operands: a = r[X % 8], then a second
//              byte Y: b = r[Y % 8], destination (and fma addend)
//              r[Y/8 % 8].
//   The oracle evaluates the same operations in the same order.
//
//===----------------------------------------------------------------------===//

#include "interval/Rounding.h"
#include "interval/igen_lib.h"

#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

/// Oracle value: a quad-precision estimate Q of the exact real result
/// plus an absolute bound A on |Q - exact|. Ops propagate A with first-
/// order error analysis plus one quad ulp of slack; when the analysis
/// cannot bound the error (division by an interval straddling zero, log
/// near zero, non-finite values) A becomes +inf and checks are skipped.
struct Oracle {
  __float128 Q = 0;
  __float128 A = 0;
};

__float128 qabs(__float128 X) { return X < 0 ? -X : X; }

const __float128 kQuadInf = __builtin_huge_valq();

/// 2^-16000: an absolute slack floor far below every quad denormal that
/// matters. Built by repeated squaring because the 'q' literal suffix is
/// a GNU extension unavailable under -std=c++20.
inline __float128 quadTiny() {
  static const __float128 T = [] {
    __float128 V = 1;
    for (int I = 0; I < 16; ++I)
      V *= static_cast<__float128>(std::ldexp(1.0, -1000));
    return V;
  }();
  return T;
}

/// One ulp-ish of quad slack at Q's magnitude: 2^-100 relative
/// (comfortably above quad rounding, far below double widths) plus the
/// absolute floor.
__float128 qulp(__float128 Q) {
  const __float128 RelEps =
      static_cast<__float128>(std::ldexp(1.0, -100));
  return qabs(Q) * RelEps + quadTiny();
}

bool qfinite(__float128 X) { return X == X && qabs(X) < kQuadInf; }

Oracle oAdd(Oracle X, Oracle Y) {
  Oracle R{X.Q + Y.Q, X.A + Y.A};
  R.A += qulp(R.Q);
  return R;
}
Oracle oSub(Oracle X, Oracle Y) {
  Oracle R{X.Q - Y.Q, X.A + Y.A};
  R.A += qulp(R.Q);
  return R;
}
Oracle oMul(Oracle X, Oracle Y) {
  Oracle R{X.Q * Y.Q,
           X.A * qabs(Y.Q) + Y.A * qabs(X.Q) + X.A * Y.A};
  R.A += qulp(R.Q);
  return R;
}
Oracle oFma(Oracle X, Oracle Y, Oracle Z) { return oAdd(oMul(X, Y), Z); }
/// X / Y: |x/y - X/Y| <= (a + |X/Y| b) / (|Y| - b) for |x - X| <= a and
/// |y - Y| <= b; unbounded once the divisor's bound reaches zero.
Oracle oDiv(Oracle X, Oracle Y) {
  const __float128 Margin = qabs(Y.Q) - Y.A;
  if (!(Margin > 0))
    return {0, kQuadInf};
  Oracle R{X.Q / Y.Q, 0};
  R.A = (X.A + qabs(R.Q) * Y.A) / Margin;
  R.A += qulp(R.Q) + qulp(R.A);
  return R;
}
Oracle oNeg(Oracle X) { return {-X.Q, X.A}; }
Oracle oAbsv(Oracle X) { return {qabs(X.Q), X.A}; }

/// Unary libm-backed oracle: evaluates \p F in long double (64-bit
/// mantissa, |error| <= a few ulps) and propagates input error through a
/// Lipschitz bound \p Deriv valid near X.Q. LibmSlack covers the libm
/// approximation error relative to the result magnitude.
Oracle oLibm(Oracle X, long double (*F)(long double), __float128 Deriv,
             __float128 LibmSlack) {
  Oracle R;
  R.Q = F(static_cast<long double>(X.Q));
  R.A = X.A * Deriv + qabs(R.Q) * LibmSlack + quadTiny();
  return R;
}

// >> long-double libm error, << double interval widths.
const __float128 kLibmSlack = static_cast<__float128>(1e-17);

/// Containment check, skipped when the oracle cannot vouch. Prints the
/// violation and returns true when \p RI provably excludes \p RO.
bool violates(int Op, f64i RI, const Oracle &RO) {
  double Lo = ia_inf_f64(RI);
  double Hi = ia_sup_f64(RI);
  if (std::isnan(Lo) || std::isnan(Hi))
    return false; // NaN interval: contains everything by convention
  if (!qfinite(RO.Q) || !qfinite(RO.A))
    return false; // oracle overflowed or gave up
  __float128 QLo = static_cast<__float128>(Lo);
  __float128 QHi = static_cast<__float128>(Hi);
  if (QLo - (RO.Q + RO.A) > 0 || (RO.Q - RO.A) - QHi > 0) {
    std::fprintf(stderr,
                 "SOUNDNESS VIOLATION: op %d produced [%a, %a] "
                 "excluding oracle %.36Lg (+/- %.6Lg)\n",
                 Op, Lo, Hi, static_cast<long double>(RO.Q),
                 static_cast<long double>(RO.A));
    return true;
  }
  return false;
}

/// Opcodes 240.. (see the file comment): the row kernels over the
/// register file, the sign-specialized fma/mul/div and the generic
/// division. Returns true on violation.
template <typename NextFn>
bool runRowOrSignOp(int Op, int X, NextFn &NextByte, f64i *IReg,
                    Oracle *OReg) {
  const int Code = 12 + Op; // reported opcode, after the generic 0..11
  if (Op <= 2) {
    const int N = 1 + X / 8 % 4, Off = X / 32 % 5, D = X % 8;
    if (Op == 0) {
      const f64i A = IReg[D];
      const Oracle OA = OReg[D];
      ia_axpy_f64(IReg, A, IReg + Off, static_cast<unsigned long>(N));
      for (int K = 0; K < N; ++K)
        OReg[K] = oFma(OA, OReg[Off + K], OReg[K]);
      for (int K = 0; K < N; ++K)
        if (violates(Code, IReg[K], OReg[K]))
          return true;
      return false;
    }
    if (Op == 1)
      ia_dot_f64(IReg + D, IReg, IReg + Off, static_cast<unsigned long>(N));
    else
      ia_dotsub_f64(IReg + D, IReg, IReg + Off,
                    static_cast<unsigned long>(N));
    for (int K = 0; K < N; ++K) {
      const Oracle P = oMul(OReg[K], OReg[Off + K]);
      OReg[D] = Op == 1 ? oAdd(OReg[D], P) : oSub(OReg[D], P);
    }
    return violates(Code, IReg[D], OReg[D]);
  }
  const int Y = NextByte();
  if (Y < 0)
    return false;
  const int A = X % 8, B = Y % 8, D = Y / 8 % 8;
  const f64i Ia = IReg[A], Ib = IReg[B], Id = IReg[D];
  const bool NonNeg = ia_inf_f64(Ia) >= 0.0, NonPos = ia_sup_f64(Ia) <= 0.0;
  const bool BNonNeg = ia_inf_f64(Ib) >= 0.0, BNonPos = ia_sup_f64(Ib) <= 0.0;
  f64i RI;
  Oracle RO;
  switch (Op) {
  case 7:
    RI = NonNeg && BNonNeg ? ia_mul_pp_f64(Ia, Ib) : ia_mul_f64(Ia, Ib);
    RO = oMul(OReg[A], OReg[B]);
    break;
  case 8:
    RI = NonNeg && BNonPos ? ia_mul_pn_f64(Ia, Ib) : ia_mul_f64(Ia, Ib);
    RO = oMul(OReg[A], OReg[B]);
    break;
  case 9:
    RI = NonPos && BNonPos ? ia_mul_nn_f64(Ia, Ib) : ia_mul_f64(Ia, Ib);
    RO = oMul(OReg[A], OReg[B]);
    break;
  case 10:
    RI = NonNeg && BNonNeg ? ia_fma_pp_f64(Ia, Ib, Id)
                           : ia_fma_f64(Ia, Ib, Id);
    RO = oFma(OReg[A], OReg[B], OReg[D]);
    break;
  case 11:
    RI = NonNeg && BNonPos ? ia_fma_pn_f64(Ia, Ib, Id)
                           : ia_fma_f64(Ia, Ib, Id);
    RO = oFma(OReg[A], OReg[B], OReg[D]);
    break;
  case 12:
    RI = NonPos && BNonPos ? ia_fma_nn_f64(Ia, Ib, Id)
                           : ia_fma_f64(Ia, Ib, Id);
    RO = oFma(OReg[A], OReg[B], OReg[D]);
    break;
  case 13: // div_p needs a divisor proven positive
    RI = ia_inf_f64(Ib) > 0.0 ? ia_div_p_f64(Ia, Ib) : ia_div_f64(Ia, Ib);
    RO = oDiv(OReg[A], OReg[B]);
    break;
  case 14: // div_n needs a divisor proven negative
    RI = ia_sup_f64(Ib) < 0.0 ? ia_div_n_f64(Ia, Ib) : ia_div_f64(Ia, Ib);
    RO = oDiv(OReg[A], OReg[B]);
    break;
  case 15:
    RI = ia_div_f64(Ia, Ib);
    RO = oDiv(OReg[A], OReg[B]);
    break;
  case 3:
    RI = NonNeg ? ia_fma_pu_f64(Ia, Ib, Id) : ia_fma_f64(Ia, Ib, Id);
    RO = oFma(OReg[A], OReg[B], OReg[D]);
    break;
  case 4:
    RI = NonPos ? ia_fma_nu_f64(Ia, Ib, Id) : ia_fma_f64(Ia, Ib, Id);
    RO = oFma(OReg[A], OReg[B], OReg[D]);
    break;
  case 5:
    RI = NonNeg ? ia_mul_pu_f64(Ia, Ib) : ia_mul_f64(Ia, Ib);
    RO = oMul(OReg[A], OReg[B]);
    break;
  case 6:
    RI = NonPos ? ia_mul_nu_f64(Ia, Ib) : ia_mul_f64(Ia, Ib);
    RO = oMul(OReg[A], OReg[B]);
    break;
  }
  IReg[D] = RI;
  OReg[D] = RO;
  return violates(Code, RI, RO);
}

/// The interpreter: runs the byte program on both representations and
/// checks containment after every op. Returns true on violation.
bool runProgram(const uint8_t *Data, size_t Size) {
  constexpr int NumRegs = 8;
  constexpr int MaxOps = 48;
  if (Size < 32)
    return false;

  // Generated interval code runs inside a sound region established by
  // its caller; the fuzzer honors the same contract.
  igen::RoundUpwardScope Up;

  f64i IReg[NumRegs];
  Oracle OReg[NumRegs];
  {
    for (int R = 0; R < 4; ++R) {
      double V;
      std::memcpy(&V, Data + 8 * R, 8);
      if (!std::isfinite(V))
        V = 1.0; // non-finite seeds make the oracle vacuous
      IReg[R] = ia_cst_f64(V);
      IReg[R + 4] = ia_cst_f64(-V);
      OReg[R] = {static_cast<__float128>(V), 0};
      OReg[R + 4] = {-static_cast<__float128>(V), 0};
    }
  }

  size_t P = 32;
  int Ops = 0;
  auto NextByte = [&]() -> int { return P < Size ? Data[P++] : -1; };

  while (Ops++ < MaxOps) {
    int OpByte = NextByte();
    if (OpByte < 0)
      break;
    if (OpByte >= 240) {
      int X = NextByte();
      if (X < 0)
        break;
      if (runRowOrSignOp(OpByte - 240, X, NextByte, IReg, OReg))
        return true;
      continue;
    }
    int Op = OpByte % 12;
    int D = (OpByte / 12) % NumRegs;
    int AByte = NextByte();
    if (AByte < 0)
      break;
    int A = AByte % NumRegs;
    int B = 0;
    bool Binary = Op <= 3 || Op == 11;
    if (Binary) {
      int BByte = NextByte();
      if (BByte < 0)
        break;
      B = BByte % NumRegs;
    }

    f64i RI;
    Oracle RO;
    switch (Op) {
    case 0:
      RI = ia_add_f64(IReg[A], IReg[B]);
      RO = oAdd(OReg[A], OReg[B]);
      break;
    case 1:
      RI = ia_sub_f64(IReg[A], IReg[B]);
      RO = oSub(OReg[A], OReg[B]);
      break;
    case 2:
      RI = ia_mul_f64(IReg[A], IReg[B]);
      RO = oMul(OReg[A], OReg[B]);
      break;
    case 3:
      RI = ia_fma_f64(IReg[A], IReg[B], IReg[D]);
      RO = oFma(OReg[A], OReg[B], OReg[D]);
      break;
    case 4:
      RI = ia_neg_f64(IReg[A]);
      RO = oNeg(OReg[A]);
      break;
    case 5:
      RI = ia_abs_f64(IReg[A]);
      RO = oAbsv(OReg[A]);
      break;
    case 6:
      RI = ia_exp_fast_f64(IReg[A]);
      // d/dx exp = exp; bound with the result magnitude (+ slack).
      RO = oLibm(OReg[A], expl, qabs(expl((long double)OReg[A].Q)) + 1,
                 kLibmSlack);
      break;
    case 7: {
      RI = ia_log_fast_f64(IReg[A]);
      __float128 X = OReg[A].Q;
      if (X - OReg[A].A <= 0) {
        RO = {0, kQuadInf}; // domain edge: oracle gives up
      } else {
        RO = oLibm(OReg[A], logl, 1 / (X - OReg[A].A), kLibmSlack);
      }
      break;
    }
    case 8:
      RI = ia_sin_fast_f64(IReg[A]);
      // |sin'| <= 1; argument reduction in long double loses relative
      // accuracy for huge args, covered by an |x|-scaled slack term.
      RO = oLibm(OReg[A], sinl, 1, kLibmSlack);
      RO.A += qabs(OReg[A].Q) * kLibmSlack;
      break;
    case 9:
      RI = ia_cos_fast_f64(IReg[A]);
      RO = oLibm(OReg[A], cosl, 1, kLibmSlack);
      RO.A += qabs(OReg[A].Q) * kLibmSlack;
      break;
    case 10: {
      RI = ia_sqrt_f64(IReg[A]);
      __float128 X = OReg[A].Q;
      if (X - OReg[A].A <= 0) {
        RO = {0, kQuadInf};
      } else {
        long double S = sqrtl(static_cast<long double>(X));
        RO.Q = S;
        RO.A = OReg[A].A / (2 * static_cast<__float128>(S)) +
               qabs(RO.Q) * kLibmSlack + quadTiny();
      }
      break;
    }
    default: // 11
      RI = ia_join_f64(IReg[A], IReg[B]);
      // join(X, Y) contains everything X contains: keep A's oracle.
      RO = OReg[A];
      break;
    }

    IReg[D] = RI;
    OReg[D] = RO;

    if (violates(Op, RI, RO))
      return true;
  }
  return false;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size > 4096)
    return 0;
  if (runProgram(Data, Size))
    __builtin_trap(); // containment violation: crash-severity
  return 0;
}
