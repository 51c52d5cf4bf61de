# Command-line contract of the tools (docs/operations.md, "Exit
# codes"): `--help` prints usage and exits 0; a typo, a malformed
# number or an invalid sweep grid exits 2 before the campaign starts,
# so no journal file is created.
#
# Invoked by the `cli-usage` ctest:
#
#   cmake -DSWEEP=... -DFUZZ=... -DSERVE=... -DSIM=... -DCRASHTEST=... \
#         -DDIFF=... -DTRAIN=... -DKILLER=... -DWORKDIR=... \
#         -P cli_usage.cmake

foreach(var SWEEP FUZZ SERVE SIM CRASHTEST DIFF TRAIN KILLER WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(journal "${WORKDIR}/never.jrn")

# expect_exit(CODE NEEDLE cmd args...): run the command, require exit
# CODE, and require NEEDLE in its stdout+stderr (empty = no check).
function(expect_exit code needle)
    execute_process(
        COMMAND ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL code)
        message(FATAL_ERROR
                "'${ARGN}' exited ${rc}, expected ${code}:\n${out}${err}")
    endif()
    if(NOT needle STREQUAL "")
        string(FIND "${out}${err}" "${needle}" pos)
        if(pos EQUAL -1)
            message(FATAL_ERROR
                    "'${ARGN}' did not print '${needle}':\n${out}${err}")
        endif()
    endif()
    if(EXISTS "${journal}")
        message(FATAL_ERROR "'${ARGN}' created a journal")
    endif()
endfunction()

expect_exit(0 "nvmr_sweep:" "${SWEEP}" --help)
expect_exit(0 "nvmr_fuzz:" "${FUZZ}" --help)
expect_exit(0 "nvmr_serve:" "${SERVE}" --help)
expect_exit(0 "nvmr_sim:" "${SIM}" --help)
expect_exit(0 "nvmr_crashtest:" "${CRASHTEST}" --help)
expect_exit(0 "nvmr_diff:" "${DIFF}" --help)
expect_exit(0 "nvmr_train:" "${TRAIN}" --help)
expect_exit(0 "nvmr_killer:" "${KILLER}" --help)

# Malformed numbers used to parse as their leading digits (or 0) and
# run: `--seed 7x` ran with seed 7, `--stride abc` with stride 1.
foreach(bad "--seed;7x" "--period;8k" "--cap;0.1x" "--map-table;-4"
        "--crash-at-cycle;1e6")
    expect_exit(2 "fatal:" "${SIM}" -w hist ${bad})
endforeach()
foreach(bad
        "--max-backups;1x"
        "--stride;abc;--cycle-samples;0"
        "--cycle-samples;x"
        "--seed;-1"
        "--snap-stride;4.5"
        "--verify-fork;two")
    expect_exit(2 "fatal:" "${CRASHTEST}" -w hist -a nvmr ${bad}
                --journal "${journal}")
endforeach()
foreach(bad "--seed;7x" "--schedules;1e3")
    expect_exit(2 "fatal:" "${DIFF}" --smoke ${bad} --journal "${journal}")
endforeach()
expect_exit(2 "fatal:" "${TRAIN}" "${WORKDIR}/never.model" --cap 0.1x
            --journal "${journal}")
foreach(bad "--seed;7x" "--min-kills;five" "--max-restarts;2x")
    expect_exit(2 "fatal:" "${KILLER}" ${bad} -- "${SWEEP}")
endforeach()

# Invalid sweep grids: each used to run (or die mid-campaign).
foreach(bad
        "--traces;0"
        "--traces;abc"
        "--traces;2x"
        "--traces;11"
        "--archs;,"
        "--policies;,"
        "--caps;abc"
        "--caps;0"
        "--caps;0.1x"
        "--workloads;nope"
        "--policies;spendthrift"
        "--watchdog-cycles;5k"
        "--bogus")
    expect_exit(2 "fatal:" "${SWEEP}" ${bad} --journal "${journal}")
endforeach()

# Fuzz typos used to become silent zero-iteration runs.
foreach(bad
        "--oracel;5"
        "0"
        "abc"
        "5x"
        "3;1;junk"
        "3;1;--bogus")
    expect_exit(2 "fatal:" "${FUZZ}" ${bad} --journal "${journal}")
endforeach()

expect_exit(2 "fatal:" "${SERVE}" --spool "${WORKDIR}" --poll-ms 5x)
expect_exit(2 "fatal:" "${SERVE}" --bogus)

message(STATUS
        "cli usage: --help, typos, malformed numbers and invalid grids OK")
