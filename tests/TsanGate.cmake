# Invoked by the tsan_gate ctest (see tests/CMakeLists.txt): configures and
# builds a nested TSan-instrumented tree, then runs the concurrency-
# sensitive tests — the parallel macro-kernel (GemmTest with an 8-thread
# team), the kernel cache, and the gemmd daemon suite (poller +
# executors + cross-process rings) — failing on any data-race report.
#
# Variables: SRC (source root), BIN (nested binary dir).

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SRC} -B ${BIN} -DEXO_UKR_SANITIZE=thread
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "tsan_gate: configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BIN} --target gemm_test ukr_test
          daemon_test gemmd_client_helper
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "tsan_gate: build failed")
endif()

set(ENV{EXO_GEMM_THREADS} 8)
execute_process(COMMAND ${BIN}/tests/gemm_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "tsan_gate: gemm_test failed under TSan")
endif()

execute_process(
  COMMAND ${BIN}/tests/ukr_test --gtest_filter=KernelCacheTest*
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "tsan_gate: ukr_test (KernelCacheTest) failed under TSan")
endif()

# The daemon exercises poller/executor/reaper concurrency plus the shm
# rings; extra workers raise the interleaving pressure.
set(ENV{EXO_GEMMD_WORKERS} 4)
execute_process(COMMAND ${BIN}/tests/daemon_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "tsan_gate: daemon_test failed under TSan")
endif()
