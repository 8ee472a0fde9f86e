# The benchmark's programs; included once the repository's libraries are
# defined (see inject.cmake). Built with the repository's warning set, so
# implicit integer conversions are errors here too.
add_executable(e2e_loadgen ${GCG_E2E_DIR}/loadgen.cpp)
target_link_libraries(e2e_loadgen PRIVATE gcg_svc gcgpu_warnings)

add_executable(e2e_inproc ${GCG_E2E_DIR}/inproc.cpp)
target_link_libraries(e2e_inproc PRIVATE
  gcg_svc gcg_store gcg_par gcg_check gcg_graph gcg_util gcgpu_warnings)
