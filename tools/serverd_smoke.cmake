# CTest script: the serving daemon end to end. Pre-trains a small artifact,
# replays a scripted session of 100+ mixed requests, and checks:
#  * every request gets an ok response (no retraining stalls, no errors),
#  * answers are deterministic across runs (stats lines excluded — they
#    carry latency measurements),
#  * the sweep cache reports hits (the session repeats problem sizes;
#    checked with batching off, where repeats re-probe the cache),
#  * the dynamic micro-batcher (daemon default) answers the same session
#    byte-identically while sharing sweeps instead of recomputing them,
#  * the --fleet process mode answers it byte-identically too, and its
#    merged stats count each problem size's sweep once.

set(dir "${WORKDIR}/serverd_smoke_artifacts")
file(REMOVE_RECURSE "${dir}")

# Small fallback model so the test stays fast: 60 boosting stages on a
# 300-row campaign still yields a deterministic, fully functional server.
execute_process(COMMAND "${SERVERD}" train --artifacts "${dir}"
                        --machine aurora --rows 300 --estimators 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${out} ${err}")
endif()
if(NOT EXISTS "${dir}/aurora-gb.model")
  message(FATAL_ERROR "train did not publish aurora-gb.model")
endif()

# Build the scripted session: 9 problem sizes x 12 rounds of mixed
# STQ/BQ/budget plus one stats probe per round = 120 requests.
set(session "${WORKDIR}/serverd_smoke_session.txt")
set(lines "")
set(problems "44\;260" "81\;835" "85\;698" "99\;718" "116\;575"
             "134\;523" "134\;951" "146\;591" "180\;720")
foreach(round RANGE 1 12)
  foreach(p IN LISTS problems)
    list(GET p 0 o)
    list(GET p 1 v)
    math(EXPR pick "(${round} + ${o}) % 3")
    if(pick EQUAL 0)
      string(APPEND lines "{\"op\":\"stq\",\"o\":${o},\"v\":${v}}\n")
    elseif(pick EQUAL 1)
      string(APPEND lines "{\"op\":\"bq\",\"o\":${o},\"v\":${v}}\n")
    else()
      string(APPEND lines
             "{\"op\":\"budget\",\"o\":${o},\"v\":${v},\"max_node_hours\":100.0}\n")
    endif()
  endforeach()
  string(APPEND lines "{\"op\":\"stats\"}\n")
endforeach()
file(WRITE "${session}" "${lines}")

# Per-request dispatch (--batch-max 0): repeats of a problem size must hit
# the sweep cache, and two replays must answer identically.
foreach(run 1 2)
  execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}"
                          --threads 4 --rows 300 --estimators 60
                          --batch-max 0
                  INPUT_FILE "${session}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve run ${run} failed: ${err}")
  endif()
  # Every line must be ok:true.
  string(REGEX MATCHALL "\"ok\":false" failures "${out}")
  if(failures)
    message(FATAL_ERROR "run ${run} had failed responses: ${out}")
  endif()
  string(REGEX MATCHALL "\"ok\":true" oks "${out}")
  list(LENGTH oks n_ok)
  if(NOT n_ok EQUAL 120)
    message(FATAL_ERROR "run ${run}: expected 120 ok responses, got ${n_ok}")
  endif()
  # Answers only: stats lines carry timing measurements, and cache_hit
  # depends on request interleaving — both are observability, not answers.
  string(REGEX REPLACE "[^\n]*\"op\":\"stats\"[^\n]*\n" "" answers "${out}")
  string(REGEX REPLACE "\"cache_hit\":(true|false)" "" answers "${answers}")
  set(answers_${run} "${answers}")
  # The session repeats each problem size 12x: the cache must be hitting.
  if(NOT out MATCHES "\"cache_hits\":[1-9]")
    message(FATAL_ERROR "run ${run}: no sweep-cache hits reported")
  endif()
endforeach()

if(NOT answers_1 STREQUAL answers_2)
  message(FATAL_ERROR "serving is not deterministic across runs")
endif()

# Dynamic batching (the daemon default) must not change a single answer
# byte. The whole stdin burst coalesces into a few large flushes, so the
# session's repeated problem sizes are answered from shared single-flight
# sweeps — exactly 9 sweeps for 9 problem sizes — rather than via repeat
# cache probes.
execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}"
                        --threads 4 --rows 300 --estimators 60
                INPUT_FILE "${session}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batched serve failed: ${err}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 120)
  message(FATAL_ERROR "batched run: expected 120 ok responses, got ${n_ok}")
endif()
string(REGEX REPLACE "[^\n]*\"op\":\"stats\"[^\n]*\n" "" answers_b "${out}")
string(REGEX REPLACE "\"cache_hit\":(true|false)" "" answers_b "${answers_b}")
if(NOT answers_b STREQUAL answers_1)
  message(FATAL_ERROR "batched answers differ from per-request answers")
endif()
if(NOT err MATCHES "\\(0 errors\\), 9 sweeps")
  message(FATAL_ERROR "batched run did not share sweeps: ${err}")
endif()

# Process fleet (--fleet 2): the parent's ShardFleet forwards stdin to two
# forked shards on the ports after --port, so answers must match the
# single-process run, and each problem size is swept once on the one shard
# that owns its key — the merged fleet stats must still read 9 sweeps.
string(RANDOM LENGTH 4 ALPHABET 0123456789 rand)
math(EXPR port "20000 + (${rand} * 4) % 40000")
execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}"
                        --fleet 2 --port ${port}
                        --threads 4 --rows 300 --estimators 60
                INPUT_FILE "${session}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet serve on port ${port} failed: ${err}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 120)
  message(FATAL_ERROR "fleet run: expected 120 ok responses, got ${n_ok}")
endif()
string(REGEX REPLACE "[^\n]*\"op\":\"stats\"[^\n]*\n" "" answers_f "${out}")
string(REGEX REPLACE "\"cache_hit\":(true|false)" "" answers_f "${answers_f}")
if(NOT answers_f STREQUAL answers_1)
  message(FATAL_ERROR "fleet answers differ from single-process answers")
endif()
if(NOT err MATCHES "\\(0 errors\\), 9 sweeps")
  message(FATAL_ERROR "fleet stats did not merge to 9 sweeps: ${err}")
endif()

# The artifact must have been loaded, never retrained, during serving.
execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}"
                        --serial 1
                INPUT_FILE "${session}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serial serve failed: ${err}")
endif()
if(NOT out MATCHES "\"models_trained\":0")
  message(FATAL_ERROR "server retrained despite a published artifact: ${out}")
endif()

file(REMOVE_RECURSE "${dir}")
file(REMOVE "${session}")
message(STATUS "serverd session OK")
