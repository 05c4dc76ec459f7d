# Crawls a small world to CSV and converts it to an MMDS v2 store, then
# checks `mmlab_cli report` on both inputs:
#   * the tables of `report <store>` (one direct fold) are byte-equal to
#     those of `report <csv>` (the in-memory walk) at 1 and 4 threads;
#   * `report <store> --carrier A` reports exactly one carrier;
#   * bad input fails with its documented exit code and message: query
#     flags on a CSV (2), a carrier that is not in the report (1), a
#     malformed numeric flag (2) and an unknown flag (2).
#   cmake -DCLI=<mmlab_cli> -DWORK_DIR=<dir> -P cli_report_store.cmake
set(csv "${WORK_DIR}/cli_report_store.csv")
set(store "${WORK_DIR}/cli_report_store")
set(gen "${WORK_DIR}/cli_report_store_gen")
file(REMOVE_RECURSE "${csv}" "${store}" "${gen}")

# run_cli(<expected exit code> <args...>): runs mmlab_cli and leaves its
# stdout in `out` and its stderr in `err`.
macro(run_cli expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "mmlab_cli ${ARGN}: expected exit ${expected}, got "
                        "${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endmacro()

# expect_error(<exit code> <message> <args...>)
macro(expect_error expected message)
  run_cli(${expected} ${ARGN})
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mmlab_cli ${ARGN}: expected '${message}' on "
                        "stderr, got:\n${err}")
  endif()
endmacro()

# The report's tables: `out` without its header line(s), which end at the
# first blank line, and without the store's trailing fold-stats line.
function(report_tables var)
  string(FIND "${out}" "\n\n" begin)
  math(EXPR begin "${begin} + 2")
  string(SUBSTRING "${out}" ${begin} -1 body)
  string(REGEX REPLACE "\nfold stats: [^\n]*\n$" "" body "${body}")
  if(NOT body MATCHES "^Carrier ")
    message(FATAL_ERROR "no census table in:\n${out}")
  endif()
  set(${var} "${body}" PARENT_SCOPE)
endfunction()

run_cli(0 crawl "${csv}" 0.02)
run_cli(0 convert "${csv}" "${store}")

foreach(threads 1 4)
  run_cli(0 report "${csv}" --threads ${threads})
  report_tables(from_csv)
  run_cli(0 report "${store}" --threads ${threads})
  if(NOT out MATCHES "\nfold stats: [^\n]*\n$")
    message(FATAL_ERROR "no fold-stats line in:\n${out}")
  endif()
  report_tables(from_store)
  if(NOT from_store STREQUAL from_csv)
    message(FATAL_ERROR "report tables differ at --threads ${threads}\n"
                        "csv:\n${from_csv}\nstore:\n${from_store}")
  endif()
endforeach()

run_cli(0 report "${store}" --carrier A)
report_tables(one)
if(NOT one MATCHES "^Carrier[^\n]*\n-+\nA [^\n]*\n\ndiversity report for A ")
  message(FATAL_ERROR "expected exactly one carrier row (A):\n${one}")
endif()

set(need_store "error: --carrier/--param need an MMDS v2 store")
expect_error(2 "${need_store}" report "${csv}" --carrier A)
expect_error(2 "${need_store}" report "${csv}" --param Ps)

set(not_in "error: carrier 'ZZ' is not in the report")
expect_error(1 "${not_in}" report "${csv}" ZZ)
expect_error(1 "${not_in}" report "${store}" ZZ)
expect_error(1 "error: carrier 'T' is not in the report"
             report "${store}" T --carrier A)

foreach(value 2x 1.9 -1 0 "")
  expect_error(2 "error: --threads needs a positive integer"
               report "${store}" --threads "${value}")
endforeach()
expect_error(2 "error: --devices needs a positive integer"
             ingest "${csv}" --devices 2x)
foreach(value 4k -1)
  expect_error(2 "error: --chunk-bytes needs a positive integer"
               ingest "${csv}" --chunk-bytes ${value})
endforeach()
foreach(flag --threads --budget)
  expect_error(2 "error: ${flag} needs a positive integer" opt ${flag} 2x)
endforeach()
expect_error(2 "error: --visits needs a positive integer"
             generate "${gen}" --visits 2x)
expect_error(2 "error: --chunk-rows needs a positive integer"
             generate "${gen}" --chunk-rows 1e6)
expect_error(2 "error: unknown flag '--no-such-flag'"
             report "${store}" --no-such-flag)

file(REMOVE_RECURSE "${csv}" "${store}" "${gen}")
