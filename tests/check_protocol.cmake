# End-to-end protocol check for the mps_serve daemon (expects -DSERVE,
# -DCLIENT, -DSYNTH pointing at the three binaries and -DOUT_DIR).
#
# Drives the service lifecycle three times:
#   1. Unix socket (--socket): boot -> ping -> synth two benchmarks via
#      mps_client -> byte-compare every Verilog/PLA artifact against a
#      local mps_synth run of the same .g files -> warm-cache synth ->
#      stats sanity -> in-band drain, and assert the daemon exits 0;
#   2. boot again -> ping -> SIGTERM, and assert the graceful-drain exit 0;
#   3. TCP (--listen 127.0.0.1:0, port read from the "listening on" line,
#      mps_client --connect): ping -> one synth byte-compared the same way
#      -> in-band drain, exit 0.
# The client's stdout must equal mps_synth's up to the timing field (the
# daemon reports the cold run's seconds; everything else is identical).
set(work ${OUT_DIR}/protocol_check)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SERVE=${SERVE} CLIENT=${CLIENT} SYNTH=${SYNTH}
          sh -e -c [=[
SOCK=./d.sock
# Per-benchmark artifact dirs: the two specs may share signal names, so
# their PLA files must not land in one directory.
mkdir -p ref/alloc ref/atod got/alloc got/atod

# Reference: plain mps_synth runs on materialized .g specs.
"$SYNTH" --bench alloc-outbound --dump-g alloc.g --quiet > /dev/null
"$SYNTH" --bench atod --dump-g atod.g --quiet > /dev/null
"$SYNTH" alloc.g --out-verilog ref/alloc.v --out-pla ref/alloc/ > ref_alloc.out
"$SYNTH" atod.g  --out-verilog ref/atod.v  --out-pla ref/atod/  > ref_atod.out

"$SERVE" --socket $SOCK --cache-dir cache --threads 2 --queue-cap 8 > serve.log 2>&1 &
SERVE_PID=$!
for i in $(seq 1 100); do [ -S $SOCK ] && break; sleep 0.1; done
[ -S $SOCK ] || { echo "daemon socket never appeared"; cat serve.log; exit 1; }

"$CLIENT" --socket $SOCK ping | grep -q '"ok":true'

"$CLIENT" --socket $SOCK synth alloc.g --out-verilog got/alloc.v --out-pla got/alloc/ > got_alloc.out
"$CLIENT" --socket $SOCK synth atod.g  --out-verilog got/atod.v  --out-pla got/atod/  > got_atod.out

# Primary outputs must be byte-identical to the local runs.
diff -r ref got

# Stdout identity up to the timing field ("0.098s," -> "T,"); the 'wrote'
# lines name different paths by construction, so drop them.
norm() { sed -E 's/[0-9]+\.[0-9]+s,/T,/' "$1" | grep -v '^wrote '; }
norm ref_alloc.out > ref_alloc.norm; norm got_alloc.out > got_alloc.norm
norm ref_atod.out  > ref_atod.norm;  norm got_atod.out  > got_atod.norm
diff ref_alloc.norm got_alloc.norm
diff ref_atod.norm  got_atod.norm

# Warm path: repeating a synth is served from the cache.
"$CLIENT" --socket $SOCK synth alloc.g > warm.out
grep -q 'ok,' warm.out
"$CLIENT" --socket $SOCK stats > stats.json
grep -q '"misses":2' stats.json
grep -q '"mem_hits":1' stats.json

# In-band drain: answered, then a clean exit 0.
"$CLIENT" --socket $SOCK drain | grep -q '"ok":true'
wait $SERVE_PID
grep -q 'drained, exiting' serve.log

# Round 2: SIGTERM must drain gracefully (exit 0, not killed).
"$SERVE" --socket $SOCK --cache-dir cache > serve2.log 2>&1 &
PID2=$!
for i in $(seq 1 100); do [ -S $SOCK ] && break; sleep 0.1; done
"$CLIENT" --socket $SOCK ping > /dev/null
kill -TERM $PID2
wait $PID2
grep -q 'drained, exiting' serve2.log

# Round 3: TCP on a kernel-assigned port, no cache.
"$SERVE" --listen 127.0.0.1:0 > serve3.log 2>&1 &
PID3=$!
ADDR=
for i in $(seq 1 100); do
  ADDR=$(sed -n 's/^mps_serve: listening on \([^ ]*\) .*/\1/p' serve3.log)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "TCP daemon never reported its port"; cat serve3.log; exit 1; }
"$CLIENT" --connect $ADDR ping | grep -q '"ok":true'
mkdir -p tcp/atod
"$CLIENT" --connect $ADDR synth atod.g --out-verilog tcp/atod.v --out-pla tcp/atod/ > tcp_atod.out
diff ref/atod.v tcp/atod.v
diff -r ref/atod tcp/atod
norm tcp_atod.out > tcp_atod.norm
diff ref_atod.norm tcp_atod.norm
"$CLIENT" --connect $ADDR drain | grep -q '"ok":true'
wait $PID3
grep -q 'drained, exiting' serve3.log
echo PROTOCOL_OK
]=]
  WORKING_DIRECTORY ${work}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "protocol check failed (rc=${rc}).\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES "PROTOCOL_OK")
  message(FATAL_ERROR "protocol check did not complete.\nstdout: ${out}\nstderr: ${err}")
endif()
