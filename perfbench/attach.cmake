# Attaches the benchmark package to the repository's own build.
#
# Configure the repository root with
#   cmake -S . -B <dir> \
#         -DCMAKE_PROJECT_igen_INCLUDE=<abs>/perfbench/attach.cmake
# and CMake includes this file at the end of the root `project(igen ...)`
# call. The deferred include runs at the end of the root CMakeLists.txt,
# in its directory scope, once every library target exists: the benchmark
# links the repository's libraries and the `igen` compiler exactly as the
# repository builds them (same flags, same sources) without editing any
# of its build files. (CMake does not allow add_subdirectory in deferred
# calls.) perfbench/run.py does this configuration.
set(IGEN_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${IGEN_PERFBENCH_DIR}/CMakeLists.txt)
