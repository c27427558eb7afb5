# CTest script: generate a small campaign CSV, evaluate it, and ask for
# advice — the CLI's three data-driven subcommands end to end — and check
# that an out-of-range integer flag is refused.

set(csv "${WORKDIR}/cli_smoke_campaign.csv")

execute_process(COMMAND "${CLI}" generate --machine aurora --rows 500
                        --seed 3 --out "${csv}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${out}")
endif()

# A NaN score must fail the smoke too, so the match wants a number.
execute_process(COMMAND "${CLI}" evaluate --data "${csv}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "R\\^2=-?[0-9]")
  message(FATAL_ERROR "evaluate failed: ${out}")
endif()

# The same campaign with one wall time set to inf must be rejected, not
# trained into a NaN model.
set(bad_csv "${WORKDIR}/cli_smoke_inf_time.csv")
file(STRINGS "${csv}" lines)
list(GET lines 1 row)
string(REGEX REPLACE ",[^,]*$" ",inf" row "${row}")
list(REMOVE_AT lines 1)
list(INSERT lines 1 "${row}")
string(JOIN "\n" text ${lines})
file(WRITE "${bad_csv}" "${text}\n")
execute_process(COMMAND "${CLI}" evaluate --data "${bad_csv}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "evaluate accepted an inf wall time: ${out}")
endif()
file(REMOVE "${bad_csv}")

execute_process(COMMAND "${CLI}" advise --data "${csv}" --machine aurora
                        --o 134 --v 951 --budget 8.0
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "fastest")
  message(FATAL_ERROR "advise failed: ${out}")
endif()

file(REMOVE "${csv}")

# An integer flag beyond int fails and names the flag instead of wrapping
# (--o 4294967340 would describe a job for O=44).
execute_process(COMMAND "${CLI}" job --machine aurora --o 4294967340 --v 260
                        --nodes 16 --tile 60
                INPUT_FILE /dev/null TIMEOUT 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "--o must be")
  message(FATAL_ERROR "job --o 4294967340 was not refused (${rc}): ${out} ${err}")
endif()

message(STATUS "CLI smoke OK")
