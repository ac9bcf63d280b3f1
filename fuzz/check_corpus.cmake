# Fails when the checked-in corpus differs from what make_corpus writes now:
# a codec change that moves a valid seed's bytes, or a seed added, renamed
# or removed in make_corpus.cpp, shows up here until the corpus is
# regenerated with `make_corpus fuzz/corpus`.
#
# Usage: cmake -DMAKE_CORPUS=<make_corpus binary> -DCORPUS=<fuzz/corpus>
#              -DOUT=<scratch dir> -P check_corpus.cmake
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${MAKE_CORPUS}" "${OUT}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_corpus failed: ${rc}")
endif()

file(GLOB fresh RELATIVE "${OUT}" "${OUT}/*.hex")
file(GLOB checked_in RELATIVE "${CORPUS}" "${CORPUS}/*.hex")
list(SORT fresh)
list(SORT checked_in)
if(NOT fresh STREQUAL checked_in)
  message(FATAL_ERROR "corpus file sets differ\n  make_corpus: ${fresh}\n  checked in:  ${checked_in}")
endif()

set(stale "")
foreach(f IN LISTS fresh)
  file(READ "${OUT}/${f}" made)
  file(READ "${CORPUS}/${f}" kept)
  if(NOT made STREQUAL kept)
    list(APPEND stale "${f}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "stale corpus files (regenerate with make_corpus): ${stale}")
endif()
list(LENGTH fresh n)
message(STATUS "${n} corpus files match make_corpus")
