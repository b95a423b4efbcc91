# Runs one paper bench and compares what it prints with its goldens:
# stdout with <GOLDEN>.txt, and the OVSX_OBS_JSON document with
# <GOLDEN>.obs.json when the bench publishes one. Both byte for byte.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<bench/golden/name> -P check.cmake
#
# Runs in the current directory, which must be the test's own. The obs
# path is relative, so the bench's "written to" line is stable.
# bench/golden/regenerate.sh rewrites the goldens.

set(ENV{OVSX_OBS_JSON} obs.json)
file(REMOVE stdout.txt obs.json)
execute_process(COMMAND ${BENCH} OUTPUT_FILE stdout.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

function(compare actual golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${golden}
                  RESULT_VARIABLE differs)
  if(differs)
    execute_process(COMMAND diff -u ${golden} ${actual})
    message(FATAL_ERROR "${actual} differs from ${golden}")
  endif()
endfunction()

compare(stdout.txt ${GOLDEN}.txt)
if(EXISTS ${GOLDEN}.obs.json)
  compare(obs.json ${GOLDEN}.obs.json)
elseif(EXISTS obs.json)
  message(FATAL_ERROR "the bench wrote obs.json but ${GOLDEN}.obs.json does not exist")
endif()
