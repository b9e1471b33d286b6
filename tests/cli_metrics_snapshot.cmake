# Replays two seeded `dana sched` runs and compares each --metrics-json
# snapshot with its committed file under GOLDEN_DIR byte for byte:
#   - sched_fcfs_clock: the default clock slot pools;
#   - sched_sjf_tiered: promotional slot pools over an OS tier.
# Together they pin every gauge the CLI publishes, the executor's pool.*
# rollup over its slot pools included. Run by ctest as
#   cmake -DDANA_CLI=<dana_cli> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir>
#         -P cli_metrics_snapshot.cmake
# After an intentional change, copy the fresh files from OUT_DIR over the
# committed ones and explain every moved line.

set(sched_fcfs_clock_ARGS --policy fcfs)
set(sched_sjf_tiered_ARGS --policy sjf --group all --pool-frames 256
    --eviction promotional --os-frames 512)

file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(snapshot sched_fcfs_clock sched_sjf_tiered)
  set(fresh "${OUT_DIR}/${snapshot}.json")
  set(golden "${GOLDEN_DIR}/${snapshot}.json")
  execute_process(
    COMMAND "${DANA_CLI}" sched ${${snapshot}_ARGS} --metrics-json "${fresh}"
    OUTPUT_QUIET
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "${snapshot}: dana sched exited with ${run_result}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}" "${golden}"
    RESULT_VARIABLE compare_result)
  if(NOT compare_result EQUAL 0)
    message(FATAL_ERROR
            "${snapshot}: ${fresh} differs from ${golden} (diff them)")
  endif()
  message(STATUS "${snapshot}: matches ${golden}")
endforeach()
