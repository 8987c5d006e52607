# Checks that each batched kernel tier runs its own code. The linker keeps
# one copy of a weak symbol across all translation units, which may be one
# built for another ISA (-march=native, or another tier's -m flags), so a
# tier object must not define, out of line, a weak copy of what it calls:
#
#  * the f64 tiers, BatchKernels{Sse2,Avx,Avx2,Avx512}.cpp.o and
#    BatchElem{Sse2,Avx2,Avx512}.cpp.o, define no weak symbol in namespace
#    igen at all: their kernels are static and their op bodies flattened
#    into them, the pack ops' cold fallbacks static (IntervalSimd.h);
#  * the double-double tiers, DdBatchKernels.cpp.o (-march=x86-64) and
#    DdBatchKernelsAvx2.cpp.o (-mavx2 -mfma), define no weak copy of the
#    cold fallbacks their op bodies call out of line (ddiMulOuter,
#    maxUpTie and what they call: DdInterval::outerHull, ddMax).
#
#   cmake -DNM=<nm> -DOBJECTS=<object>|<object>|... -P TierSymbols.cmake

string(REPLACE "|" ";" OBJECTS "${OBJECTS}")
set(Checked 0)
set(Errors "")
foreach(O IN LISTS OBJECTS)
  if(O MATCHES "/DdBatchKernels(Avx2)?\\.cpp\\.o(bj)?$")
    set(Pattern "[^\n]* [WVwv] [^\n]*(ddiMulOuter|outerHull|ddMax|maxUpTie)[^\n]*")
  elseif(O MATCHES "/Batch(Kernels(Sse2|Avx|Avx2|Avx512)|Elem(Sse2|Avx2|Avx512))\\.cpp\\.o(bj)?$")
    set(Pattern "[^\n]* [WVwv] [^\n]*igen::[^\n]*")
  else()
    continue()
  endif()
  math(EXPR Checked "${Checked} + 1")
  execute_process(COMMAND ${NM} -C ${O} OUTPUT_VARIABLE Syms
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${O}")
  endif()
  string(REGEX MATCHALL "${Pattern}" Weak "${Syms}")
  foreach(W IN LISTS Weak)
    string(APPEND Errors "\n  ${O}: ${W}")
  endforeach()
endforeach()
if(NOT Checked EQUAL 9)
  message(FATAL_ERROR "expected the nine kernel tier objects, found ${Checked}")
endif()
if(Errors)
  message(FATAL_ERROR "weak definitions in kernel tier objects:${Errors}")
endif()
message(STATUS "kernel tiers: no weak definitions")
