# Sanitizer wiring for every target in the build.
#
#   cmake -B build-asan -S . -DSKYMR_SANITIZE="address;undefined"
#   cmake -B build-tsan -S . -DSKYMR_SANITIZE=thread
#
# The value is a ;- or ,-separated list of sanitizers. ASan/UBSan compose;
# TSan must run alone. Sanitizer builds also force the SKYMR_DCHECK layer
# on (see src/common/logging.h), so one CI configuration exercises both
# the memory/race detectors and every debug invariant.
#
# Exported for tests/CMakeLists.txt:
#   SKYMR_SANITIZE_LIST      normalized list of enabled sanitizers
#   SKYMR_TEST_SANITIZER_ENV ENVIRONMENT entries pointing the sanitizer
#                            runtimes at the committed suppression files

set(SKYMR_SANITIZE "" CACHE STRING
    "Sanitizers for all targets: 'address;undefined', 'thread', or empty")

set(SKYMR_SANITIZE_LIST "")
set(SKYMR_TEST_SANITIZER_ENV "")

if(NOT SKYMR_SANITIZE STREQUAL "")
  string(REPLACE "," ";" SKYMR_SANITIZE_LIST "${SKYMR_SANITIZE}")

  if("thread" IN_LIST SKYMR_SANITIZE_LIST AND
     ("address" IN_LIST SKYMR_SANITIZE_LIST OR
      "leak" IN_LIST SKYMR_SANITIZE_LIST))
    message(FATAL_ERROR
        "SKYMR_SANITIZE: 'thread' cannot be combined with 'address'/'leak'")
  endif()

  set(_skymr_fsanitize "")
  foreach(_san IN LISTS SKYMR_SANITIZE_LIST)
    if(NOT _san MATCHES "^(address|undefined|thread|leak)$")
      message(FATAL_ERROR "SKYMR_SANITIZE: unknown sanitizer '${_san}'")
    endif()
    list(APPEND _skymr_fsanitize "-fsanitize=${_san}")
  endforeach()
  # GCC's 'undefined' group leaves out float-cast-overflow, the check
  # that catches a double converted to an integer type it does not fit.
  if("undefined" IN_LIST SKYMR_SANITIZE_LIST)
    list(APPEND _skymr_fsanitize "-fsanitize=float-cast-overflow")
  endif()

  # -fno-sanitize-recover turns UBSan diagnostics into hard failures so
  # ctest actually goes red; frame pointers + -g keep reports readable.
  add_compile_options(${_skymr_fsanitize}
                      -fno-omit-frame-pointer
                      -fno-sanitize-recover=all
                      -g)
  add_link_options(${_skymr_fsanitize})

  set(_skymr_supp_dir "${PROJECT_SOURCE_DIR}/sanitizers")
  if("thread" IN_LIST SKYMR_SANITIZE_LIST)
    list(APPEND SKYMR_TEST_SANITIZER_ENV
         "TSAN_OPTIONS=suppressions=${_skymr_supp_dir}/tsan.supp:halt_on_error=1:second_deadlock_stack=1")
  endif()
  if("address" IN_LIST SKYMR_SANITIZE_LIST)
    list(APPEND SKYMR_TEST_SANITIZER_ENV
         "ASAN_OPTIONS=detect_stack_use_after_return=1:strict_string_checks=1:detect_invalid_pointer_pairs=1"
         "LSAN_OPTIONS=suppressions=${_skymr_supp_dir}/lsan.supp")
  endif()
  if("undefined" IN_LIST SKYMR_SANITIZE_LIST)
    list(APPEND SKYMR_TEST_SANITIZER_ENV
         "UBSAN_OPTIONS=print_stacktrace=1:suppressions=${_skymr_supp_dir}/ubsan.supp")
  endif()

  message(STATUS "skymr: sanitizers enabled (${SKYMR_SANITIZE_LIST}), "
                 "SKYMR_DCHECK forced on")
endif()
