# Fails if any gtest binary in BINARIES ('|'-separated) lists different
# test names in two runs. Run as:
#   cmake -DBINARIES=<bin>|<bin>... -P stable_names.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(bin IN LISTS binaries)
    execute_process(COMMAND ${bin} --gtest_list_tests
        OUTPUT_VARIABLE first RESULT_VARIABLE first_rc)
    execute_process(COMMAND ${bin} --gtest_list_tests
        OUTPUT_VARIABLE second RESULT_VARIABLE second_rc)
    if(NOT first_rc EQUAL 0 OR NOT second_rc EQUAL 0)
        message(FATAL_ERROR "${bin} --gtest_list_tests failed")
    endif()
    if(NOT first STREQUAL second)
        message(FATAL_ERROR "${bin}: test names differ between two "
            "listings:\n${first}\n--- second listing ---\n${second}")
    endif()
endforeach()
list(LENGTH binaries count)
message(STATUS "${count} binaries list stable test names")
