# Telemetry validation path, end to end: synth_cli writes a small corpus,
# ptrack_cli --batch runs it with --metrics-out and --trace-out, and
# obs_check must accept both documents. obs_check must also reject a
# snapshot with no pipeline counters and a trace with an unbalanced span,
# so its required-counter and span-balance rules are exercised both ways.
#
#   cmake -DSYNTH_CLI=... -DPTRACK_CLI=... -DOBS_CHECK=... -DWORK_DIR=...
#         -P obs_smoke.cmake

foreach(var SYNTH_CLI PTRACK_CLI OBS_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/corpus")

function(run expect_ok)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect_ok AND NOT rc EQUAL 0)
    message(FATAL_ERROR "obs_smoke: failed (${rc}): ${ARGN}\n${out}${err}")
  elseif(NOT expect_ok AND rc EQUAL 0)
    message(FATAL_ERROR "obs_smoke: accepted a bad document: ${ARGN}\n${out}")
  endif()
endfunction()

foreach(seed 1 2 3)
  run(TRUE "${SYNTH_CLI}" --scenario walk:40,eat:10 --seed ${seed}
      --user-seed ${seed} --output "${WORK_DIR}/corpus/trace${seed}.csv")
endforeach()
run(TRUE "${PTRACK_CLI}" --batch "${WORK_DIR}/corpus" --quiet
    --metrics-out "${WORK_DIR}/metrics.json"
    --trace-out "${WORK_DIR}/trace.json")
run(TRUE "${OBS_CHECK}" --metrics "${WORK_DIR}/metrics.json"
    --trace "${WORK_DIR}/trace.json")

file(WRITE "${WORK_DIR}/empty_metrics.json"
  "{\"schema\":\"ptrack.metrics.v1\",\"metrics\":{\"counters\":{},"
  "\"gauges\":{},\"histograms\":{}}}\n")
run(FALSE "${OBS_CHECK}" --metrics "${WORK_DIR}/empty_metrics.json")

# One matched ptrack.core.process pair, then a span left open: only the
# balance rule can reject this.
file(WRITE "${WORK_DIR}/unbalanced_trace.json"
  "{\"traceEvents\":["
  "{\"name\":\"ptrack.core.process\",\"ph\":\"B\",\"ts\":1,\"tid\":0},"
  "{\"name\":\"ptrack.core.process\",\"ph\":\"E\",\"ts\":2,\"tid\":0},"
  "{\"name\":\"ptrack.core.count\",\"ph\":\"B\",\"ts\":3,\"tid\":0}]}\n")
run(FALSE "${OBS_CHECK}" --trace "${WORK_DIR}/unbalanced_trace.json")
