# Adds the end-to-end benchmark's programs to the repository's own build
# without editing any file outside bench/e2e/. run.py configures with
#
#   -DCMAKE_PROJECT_gcgpu_INCLUDE=bench/e2e/inject.cmake
#
# which includes this file at the end of the top-level project() call.
# The targets it adds link gcg_svc & co., which do not exist yet at that
# point, so their definition is deferred to the end of the top-level
# CMakeLists.txt. (A deferred add_subdirectory is rejected by CMake, and a
# standalone project breaks because every src/ target uses
# ${CMAKE_SOURCE_DIR}/src as its include directory.)
set(GCG_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${GCG_E2E_DIR}/targets.cmake)
