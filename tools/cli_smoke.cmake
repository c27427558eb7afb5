# CTest script: generate a small campaign CSV, evaluate it, and ask for
# advice — the CLI's three data-driven subcommands end to end.

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
message(STATUS "CLI smoke OK")
