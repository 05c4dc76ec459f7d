# Runs `mmlab_cli report` on a header-only CSV (a valid dataset with no
# carriers) and expects a clean failure: exit code 1 and an error message.
#   cmake -DCLI=<mmlab_cli> -DWORK_DIR=<dir> -P cli_report_empty.cmake
set(csv "${WORK_DIR}/cli_report_empty.csv")
file(WRITE "${csv}"
     "carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context\n")
execute_process(COMMAND "${CLI}" report "${csv}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got ${rc}\nstdout:\n${out}\n"
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "error: dataset has no carriers")
  message(FATAL_ERROR "missing error message; stderr:\n${err}")
endif()
