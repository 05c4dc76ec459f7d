# Crawls a small world to CSV, converts it to an MMDS v2 store and back
# (convert's defaults: CSV -> store, store -> CSV), and expects the two CSVs
# to be byte-identical.
#   cmake -DCLI=<mmlab_cli> -DWORK_DIR=<dir> -P cli_convert_roundtrip.cmake
set(csv "${WORK_DIR}/cli_convert_in.csv")
set(store "${WORK_DIR}/cli_convert_store")
set(back "${WORK_DIR}/cli_convert_back.csv")
file(REMOVE_RECURSE "${csv}" "${store}" "${back}")

foreach(step "crawl;${csv};0.02" "convert;${csv};${store}"
             "convert;${store};${back}")
  execute_process(COMMAND "${CLI}" ${step}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mmlab_cli ${step} exited ${rc}\nstdout:\n${out}\n"
                        "stderr:\n${err}")
  endif()
endforeach()

if(NOT EXISTS "${store}/manifest.mmds2")
  message(FATAL_ERROR "convert did not write a store at ${store}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${csv}" "${back}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${back} differs from ${csv}")
endif()
file(REMOVE_RECURSE "${csv}" "${store}" "${back}")
