# Sanitizer and warning hardening for all geoanon targets.
#
# GEOANON_SANITIZE is a semicolon- or comma-separated list drawn from
# {address, undefined, thread, leak}. The flags are applied globally (compile
# and link) so every target — src/, tests/, bench/, examples/, fuzz/ — runs
# under the same instrumentation. address+undefined compose; thread excludes
# address/leak (the runtimes conflict), which is diagnosed here rather than at
# link time. Sanitizer builds also compile the asserts in (-UNDEBUG) and
# libstdc++'s precondition checks (-D_GLIBCXX_ASSERTIONS).
#
#   cmake -B build-asan -S . -DGEOANON_SANITIZE="address;undefined"
#   cmake -B build-tsan -S . -DGEOANON_SANITIZE=thread
#
# GEOANON_WERROR=ON promotes warnings to errors (the CI gate).

set(GEOANON_SANITIZE "" CACHE STRING
    "Sanitizers to enable: list of address;undefined;thread;leak")
option(GEOANON_WERROR "Treat compiler warnings as errors" OFF)

if(GEOANON_WERROR)
  add_compile_options(-Werror)
endif()

if(GEOANON_SANITIZE)
  # Accept comma separators too: -DGEOANON_SANITIZE=address,undefined.
  string(REPLACE "," ";" _geoanon_san_list "${GEOANON_SANITIZE}")

  set(_geoanon_san_flags "")
  foreach(_san IN LISTS _geoanon_san_list)
    string(STRIP "${_san}" _san)
    if(_san STREQUAL "address" OR _san STREQUAL "undefined" OR
       _san STREQUAL "thread" OR _san STREQUAL "leak")
      list(APPEND _geoanon_san_flags "-fsanitize=${_san}")
    elseif(_san)
      message(FATAL_ERROR "GEOANON_SANITIZE: unknown sanitizer '${_san}' "
                          "(expected address, undefined, thread, or leak)")
    endif()
  endforeach()

  if("-fsanitize=thread" IN_LIST _geoanon_san_flags AND
     ("-fsanitize=address" IN_LIST _geoanon_san_flags OR
      "-fsanitize=leak" IN_LIST _geoanon_san_flags))
    message(FATAL_ERROR "GEOANON_SANITIZE: thread cannot combine with "
                        "address/leak (incompatible runtimes)")
  endif()

  if(_geoanon_san_flags)
    # Keep frames and symbols so sanitizer reports carry usable stacks.
    list(APPEND _geoanon_san_flags -fno-omit-frame-pointer -g)
    add_compile_options(${_geoanon_san_flags})
    add_link_options(${_geoanon_san_flags})
    # Sanitizer builds also run the asserts: compile options follow
    # CMAKE_CXX_FLAGS_<CONFIG> on the command line, so -UNDEBUG here undoes
    # RelWithDebInfo's -DNDEBUG (in CMAKE_CXX_FLAGS it would come first and
    # do nothing). _GLIBCXX_ASSERTIONS adds the standard library's checks.
    add_compile_options(-UNDEBUG -D_GLIBCXX_ASSERTIONS)
    # UBSan: any report is a bug; die loudly instead of logging and moving on.
    if("-fsanitize=undefined" IN_LIST _geoanon_san_flags)
      add_compile_options(-fno-sanitize-recover=undefined)
      add_link_options(-fno-sanitize-recover=undefined)
    endif()
    message(STATUS "geoanon: sanitizers enabled: ${GEOANON_SANITIZE}")
  endif()
endif()
