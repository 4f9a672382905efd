# src/ holds only what a product path reaches: walk `#include "..."` from
# the product roots (the CLI, bench_report, the bench and example programs
# and the perfbench harness), pairing each src/ header with its .cpp, and
# fail listing every src/ file the walk never reaches. Test-only code
# belongs under tests/.
#
# Usage: cmake -DROOT=<source dir> -P src_reachability_test.cmake

cmake_minimum_required(VERSION 3.16)

file(GLOB roots
  ${ROOT}/tools/prcost_cli.cpp
  ${ROOT}/tools/bench_report.cpp
  ${ROOT}/bench/*.cpp ${ROOT}/bench/*.hpp
  ${ROOT}/examples/*.cpp
  ${ROOT}/perfbench/harness/*.cpp ${ROOT}/perfbench/harness/*.hpp)
if(NOT roots)
  message(FATAL_ERROR "no product roots under '${ROOT}'")
endif()

set(queue ${roots})
set(seen ${roots})
while(queue)
  list(POP_FRONT queue file)
  get_filename_component(dir ${file} DIRECTORY)
  file(STRINGS ${file} includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  set(found "")
  foreach(line IN LISTS includes)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" inc "${line}")
    # Project includes resolve against src/ (the include root), then
    # against the including file's own directory.
    if(EXISTS ${ROOT}/src/${inc})
      list(APPEND found ${ROOT}/src/${inc})
    elseif(EXISTS ${dir}/${inc})
      get_filename_component(local ${dir}/${inc} ABSOLUTE)
      list(APPEND found ${local})
    endif()
  endforeach()
  # A reached header brings in the translation unit that defines it.
  if(file MATCHES "\\.hpp$")
    string(REGEX REPLACE "\\.hpp$" ".cpp" source ${file})
    if(EXISTS ${source})
      list(APPEND found ${source})
    endif()
  endif()
  foreach(next IN LISTS found)
    if(NOT next IN_LIST seen)
      list(APPEND seen ${next})
      list(APPEND queue ${next})
    endif()
  endforeach()
endwhile()

file(GLOB_RECURSE sources RELATIVE ${ROOT}
  ${ROOT}/src/*.cpp ${ROOT}/src/*.hpp)
list(SORT sources)
set(unreached "")
foreach(source IN LISTS sources)
  if(NOT ${ROOT}/${source} IN_LIST seen)
    list(APPEND unreached ${source})
  endif()
endforeach()
if(unreached)
  list(LENGTH unreached count)
  list(JOIN unreached "\n  " listing)
  message(FATAL_ERROR
    "${count} src/ files no product path reaches:\n  ${listing}")
endif()
list(LENGTH sources count)
message(STATUS "all ${count} src/ files are reached from a product root")
