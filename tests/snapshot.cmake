# Replays seeded runs and compares the files they write with committed
# goldens byte for byte. CLEAN_DIR, if set, is emptied first, so no file
# of an earlier run can pass. Then for each name in SNAPSHOTS it runs
# <name>_COMMAND (a program and its arguments), if set, and compares
# <name>_FRESH, a file some run wrote, with <name>_GOLDEN, if set. Run by
# ctest as
#   cmake [-DCLEAN_DIR=<dir>] -DSNAPSHOTS=<name>[;<name>...]
#         ["-D<name>_COMMAND=<program>;<args>"]
#         [-D<name>_FRESH=<file> -D<name>_GOLDEN=<file>] ... -P snapshot.cmake
# After an intentional change, copy each fresh file over its golden and
# explain every moved line.

if(CLEAN_DIR)
  file(REMOVE_RECURSE "${CLEAN_DIR}")
  file(MAKE_DIRECTORY "${CLEAN_DIR}")
endif()
foreach(snapshot ${SNAPSHOTS})
  if(${snapshot}_COMMAND)
    execute_process(
      COMMAND ${${snapshot}_COMMAND}
      OUTPUT_QUIET
      RESULT_VARIABLE run_result)
    if(NOT run_result EQUAL 0)
      message(FATAL_ERROR
              "${snapshot}: ${${snapshot}_COMMAND} exited with ${run_result}")
    endif()
  endif()
  if(${snapshot}_GOLDEN)
    set(fresh "${${snapshot}_FRESH}")
    set(golden "${${snapshot}_GOLDEN}")
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}" "${golden}"
      RESULT_VARIABLE compare_result)
    if(NOT compare_result EQUAL 0)
      message(FATAL_ERROR
              "${snapshot}: ${fresh} differs from ${golden} (diff them)")
    endif()
    message(STATUS "${snapshot}: matches ${golden}")
  endif()
endforeach()
