# CTest script: the serving daemon end to end. Pre-trains a small artifact,
# replays a scripted session of 100+ mixed requests, and checks:
#  * every request gets an ok response (no retraining stalls, no errors),
#  * answers are deterministic across runs (stats lines excluded — they
#    carry latency measurements),
#  * the sweep cache reports hits (the session repeats problem sizes;
#    checked with batching off, where repeats re-probe the cache),
#  * the dynamic micro-batcher (daemon default) answers the same session
#    byte-identically while sharing sweeps instead of recomputing them,
#  * --serial 0 means pipelined (the batch scheduler dispatches), not serial,
#  * a malformed artifact (a tree cycle, a split feature past the row) is
#    refused with "ok":false within seconds instead of hanging the loader
#    or answering from out-of-row reads,
#  * an integer field beyond int and an out-of-range --port or --threads
#    are refused instead of wrapping,
#  * a non-positive problem size is the client's error: bad_request with a
#    plain message, not an internal error quoting a checked expression,
#    echoing the request's op and id.

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

# --serial 0 is off: the stq goes through the batch scheduler, whose first
# dispatch on an idle server is a size-1 bypass.
file(WRITE "${session}" "{\"op\":\"stq\",\"o\":44,\"v\":260}\n{\"op\":\"stats\"}\n")
execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}" --serial 0
                INPUT_FILE "${session}" TIMEOUT 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--serial 0 serve failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "\"batch_bypass\":[1-9]")
  message(FATAL_ERROR "--serial 0 did not pipeline through the scheduler: ${out}")
endif()

# Malformed artifacts: each must be refused, and quickly. The TIMEOUT turns
# a loader that loops into a failure in seconds.
set(bad_dir "${WORKDIR}/serverd_smoke_bad_artifacts")
set(bad_models
    # The second node's left child points back at the root.
    "ccpred-gb-v1\n1 0.1 5\n3 4\n0 0.5 1 1 2\n1 0.5 2 0 2\n-1 0 3 -1 -1\n0 0 0 0\n"
    # The root splits on feature 9 of a 4-feature model (rows have 4 columns).
    "ccpred-gb-v1\n1 0.1 5\n3 4\n9 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n0 0 0 0\n")
file(WRITE "${session}" "{\"op\":\"stq\",\"o\":44,\"v\":260}\n")
foreach(model IN LISTS bad_models)
  file(REMOVE_RECURSE "${bad_dir}")
  file(WRITE "${bad_dir}/aurora-gb.model" "${model}")
  execute_process(COMMAND "${SERVERD}" serve --artifacts "${bad_dir}"
                          --serial 1
                  INPUT_FILE "${session}" TIMEOUT 20
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve on a malformed artifact did not finish (${rc}): ${model}")
  endif()
  if(NOT out MATCHES "\"ok\":false")
    message(FATAL_ERROR "malformed artifact was served: ${model} -> ${out}")
  endif()
endforeach()
file(REMOVE_RECURSE "${bad_dir}")

# An integer field beyond int must be refused, not wrapped: o = 2^32 + 44
# would otherwise be answered (and cached) as O = 44.
file(WRITE "${session}" "{\"op\":\"stq\",\"o\":4294967340,\"v\":260}\n")
execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}" --serial 1
                INPUT_FILE "${session}" TIMEOUT 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"ok\":false.*\"code\":\"bad_request\"")
  message(FATAL_ERROR "o beyond int was not refused (${rc}): ${out} ${err}")
endif()

# O = -3 is refused at the parse boundary as bad_request, echoing the
# request's op and id, serial and pipelined, and the message names the
# fields, not a checked expression or a source path.
file(WRITE "${session}" "{\"op\":\"stq\",\"o\":-3,\"v\":260,\"id\":\"neg\"}\n")
foreach(serial 1 0)
  execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}"
                          --serial ${serial}
                  INPUT_FILE "${session}" TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "\"code\":\"bad_request\""
     OR NOT out MATCHES "\"op\":\"stq\",\"id\":\"neg\""
     OR out MATCHES "check failed")
    message(FATAL_ERROR "o = -3 (--serial ${serial}) was not refused as "
                        "bad_request with its op and id (${rc}): ${out} ${err}")
  endif()
endforeach()

# Numeric flags out of their range fail before any load or socket, and the
# error names the flag, instead of wrapping (a port of 70000 to 4464, a
# thread count of -1 to SIZE_MAX).
foreach(bad "--port;70000" "--threads;-1")
  list(GET bad 0 flag)
  execute_process(COMMAND "${SERVERD}" serve --artifacts "${dir}" ${bad}
                  INPUT_FILE /dev/null TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "${flag} must be")
    message(FATAL_ERROR "serve ${bad} was not refused (${rc}): ${out} ${err}")
  endif()
endforeach()

file(REMOVE_RECURSE "${dir}")
file(REMOVE "${session}")
message(STATUS "serverd session OK")
