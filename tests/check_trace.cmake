# Run ${CMD} (mps_synth) on a small benchmark with --trace/--stats-json and
# validate the observability output end-to-end: both files must be
# well-formed JSON (string(JSON) parses them), and the trace must contain every
# span name the instrumented layers emit.
set(trace_file ${OUT_DIR}/trace_check.json)
set(stats_file ${OUT_DIR}/stats_check.json)
execute_process(
  COMMAND ${CMD} --bench ${BENCH} --quiet
          --trace ${trace_file} --stats-json ${stats_file}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} --bench ${BENCH} failed (rc=${rc}).\n"
                      "stderr: ${err}\nstdout: ${out}")
endif()

file(READ ${trace_file} trace)
string(JSON n_events LENGTH "${trace}")  # fatal if not valid JSON
if(n_events LESS 10)
  message(FATAL_ERROR "trace has only ${n_events} events")
endif()

foreach(span sat.solve petri.reachability sg.infer_codes sg.analyze_csc
             synth.modular synth.module sg.expand)
  if(NOT trace MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "trace is missing span '${span}'")
  endif()
endforeach()

file(READ ${stats_file} stats)
string(JSON solves GET "${stats}" counters sat.solves)  # fatal if absent
if(solves LESS 1)
  message(FATAL_ERROR "stats counters report ${solves} sat.solves")
endif()
string(JSON modular_count GET "${stats}" spans synth.modular count)
if(NOT modular_count EQUAL 1)
  message(FATAL_ERROR "expected exactly one synth.modular span, got ${modular_count}")
endif()
