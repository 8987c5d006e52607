# Checks that each double-double kernel tier runs its own code: the cold
# fallbacks its op bodies call out of line (ddiMulOuter, maxUpTie and what
# they call: DdInterval::outerHull, ddMax) must not be weak definitions in
# DdBatchKernels.cpp.o (-march=x86-64) or DdBatchKernelsAvx2.cpp.o
# (-mavx2 -mfma). The linker keeps one copy of a weak symbol across all
# translation units, which may be one built for another ISA.
#
#   cmake -DNM=<nm> -DOBJECTS=<object>|<object>|... -P DdTierSymbols.cmake

string(REPLACE "|" ";" OBJECTS "${OBJECTS}")
set(Checked 0)
set(Errors "")
foreach(O IN LISTS OBJECTS)
  if(NOT O MATCHES "/DdBatchKernels(Avx2)?\\.cpp\\.o(bj)?$")
    continue()
  endif()
  math(EXPR Checked "${Checked} + 1")
  execute_process(COMMAND ${NM} -C ${O} OUTPUT_VARIABLE Syms
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${O}")
  endif()
  string(REGEX MATCHALL
    "[^\n]* [WVwv] [^\n]*(ddiMulOuter|outerHull|ddMax|maxUpTie)[^\n]*"
    Weak "${Syms}")
  foreach(W IN LISTS Weak)
    string(APPEND Errors "\n  ${O}: ${W}")
  endforeach()
endforeach()
if(NOT Checked EQUAL 2)
  message(FATAL_ERROR "expected the two dd kernel objects, found ${Checked}")
endif()
if(Errors)
  message(FATAL_ERROR "weak dd fallback definitions:${Errors}")
endif()
message(STATUS "dd kernel tiers: no weak fallback definitions")
