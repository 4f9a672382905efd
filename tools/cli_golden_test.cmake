# Byte-level pin of the prcost CLI: for every case, the exit code, the
# SHA-256 of stdout and (for cases that write a file) the SHA-256 of that
# file must match the recorded digests. Stderr is not pinned: usage-error
# wording may change, exit codes may not. Cases run in order inside WORK,
# with relative paths, so digests do not depend on the build directory;
# later cases read files that earlier cases wrote (-o, --dump-trace).
#
# Usage: cmake -DCLI=<prcost> -DWORK=<dir> [-DUPDATE=ON] -P cli_golden_test.cmake
# UPDATE=ON prints every case's actual digests instead of comparing.

get_filename_component(CLI "${CLI}" ABSOLUTE)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(failures "")
# SHA-256 of empty stdout.
set(no_output e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855)

# golden(<name> "<rc> <stdout sha256>[ <file sha256>]" [OUT <file>] ARGS ...)
function(golden name want)
  cmake_parse_arguments(G "" "OUT" "ARGS" ${ARGN})
  execute_process(COMMAND ${CLI} ${G_ARGS} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(SHA256 digest "${out}")
  set(got "${rc} ${digest}")
  if(G_OUT)
    if(EXISTS "${WORK}/${G_OUT}")
      file(SHA256 "${WORK}/${G_OUT}" file_digest)
    else()
      set(file_digest "missing")
    endif()
    string(APPEND got " ${file_digest}")
  endif()
  if(UPDATE)
    message(STATUS "golden ${name} \"${got}\"")
  elseif(NOT got STREQUAL want)
    set(failures "${failures}\n  ${name}: got \"${got}\"\n    want \"${want}\"\n    stderr: ${err}" PARENT_SCOPE)
  endif()
endfunction()

# ------------------------------------------------------------ usage/exit --
golden(bare "2 ${no_output}"
       ARGS)
golden(unknown_command "2 ${no_output}"
       ARGS frobnicate)

# --------------------------------------------------------------- devices --
golden(devices "0 b7facf45ea3ba773d90143d29701ecd87e10c6d5500e45be39a8f07781b90e76"
       ARGS devices)

# ----------------------------------------------------------------- synth --
golden(synth_fir "0 6f937bc6dfdb5c9df3b94c8638dc5b9bd3feed08a6a86662d823f86d942565c4"
       ARGS synth fir)
golden(synth_family_v6 "0 2e0503ce030c0f1f580b5b7caac30e5d419ec0df12531d9cb70e6b0ca4bb799b"
       ARGS synth mips --family v6)
golden(synth_family_s6 "0 6910d3ba244ff51a00db21400d5b5d56bde94e46eac35173f2802cff08ad68df"
       ARGS synth crc32 --family s6)
golden(synth_out "0 1c7289ff03b1bb9ae560a38442daa0481aca4ae8558c09c9e79e8eb9d7381be7 6f937bc6dfdb5c9df3b94c8638dc5b9bd3feed08a6a86662d823f86d942565c4"
       OUT fir.srp ARGS synth fir -o fir.srp)
golden(synth_family_out "0 61e7a1526cddadfa5d1bee6a29cf9cb4c78b59923dd87953062f7748c0697ea1 7f5a9a1e07ca9f81cc3dcdd466e9263424d6e62b8ed8227c83c0999d222be06e"
       OUT sdram_s7.srp ARGS synth sdram --family s7 -o sdram_s7.srp)
golden(synth_no_prm "2 ${no_output}"
       ARGS synth)
golden(synth_bad_family "1 ${no_output}"
       ARGS synth fir --family v9)
golden(synth_unknown_prm "1 ${no_output}"
       ARGS synth nosuch)

# --------------------------------------------------------------- netlist --
golden(netlist_uart "0 784520b5fe52afa9428cb84ade2e5c406e9cd277f2afcd1b482192e7a27b3545"
       ARGS netlist uart)
golden(netlist_out "0 8e69c9e8836f4635b438265c797aef28879d81e802e2509e6e9da2160b38f3b9 27a896b62c289cb60063dde39375b840094baedd90699ca7c327f3559b987180"
       OUT fir.net ARGS netlist fir -o fir.net)

# ------------------------------------------------------------------ plan --
golden(plan_fir "0 71c9ebc50cb7507085a9f18915e51ff07128450d153c2f7d75bffb590ae415ae"
       ARGS plan fir --device xc5vlx110t)
golden(plan_shaped "0 2003252b99602e0733429a659a3553e817187f7b579641c7a2bdd5a0be78a457"
       ARGS plan fir --device xc5vlx110t --shaped)
golden(plan_objective_area "0 a72caf987fa249dbbd1b314d6880ba6275027afe60224fd510aec8f4aabc0681"
       ARGS plan fir --device xc7k325t --objective area)
golden(plan_objective_height "0 a72caf987fa249dbbd1b314d6880ba6275027afe60224fd510aec8f4aabc0681"
       ARGS plan fir --device xc7k325t --objective height)
golden(plan_objective_bitstream "0 0f410d46fdb8a1b9bb13db40b8e0a3357133a1a0c34d13a69634fa6a8b197db7"
       ARGS plan fir --device xc7k325t --objective bitstream)
golden(plan_shorthand_device "0 e7f0b8da1adc65cb3b49af9a2df71f57abf515325f0c8f8c61a5b5a7001ecce7"
       ARGS plan sobel --device v5lx110t --shaped)
golden(plan_report "0 7ee5374e6a66b8a6120c2e192284d991fa4289b8edf701b595df67bdde1a4d48"
       ARGS plan --report fir.srp --device xc5vlx110t)
golden(plan_netlist "0 71c9ebc50cb7507085a9f18915e51ff07128450d153c2f7d75bffb590ae415ae"
       ARGS plan --netlist fir.net --device xc5vlx110t)
# Source precedence: --netlist beats --report beats the positional PRM.
golden(plan_netlist_beats_report "0 71c9ebc50cb7507085a9f18915e51ff07128450d153c2f7d75bffb590ae415ae"
       ARGS plan uart --netlist fir.net --report sdram_s7.srp --device
         xc5vlx110t)
golden(plan_report_beats_prm "0 7ee5374e6a66b8a6120c2e192284d991fa4289b8edf701b595df67bdde1a4d48"
       ARGS plan uart --report fir.srp --device xc5vlx110t)
golden(plan_infeasible "1 9d70fd1fa5dee97389a308e19f0eab68390ec754a14fbdd8c86823447bf6cc65"
       ARGS plan matmul --device xc5vlx110t)
golden(plan_no_device "2 ${no_output}"
       ARGS plan fir)
golden(plan_no_prm "2 ${no_output}"
       ARGS plan --device xc5vlx110t)
golden(plan_bad_objective "2 ${no_output}"
       ARGS plan fir --device xc5vlx110t --objective fast)
golden(plan_unknown_device "1 ${no_output}"
       ARGS plan fir --device bogus)
golden(plan_missing_report "1 ${no_output}"
       ARGS plan --report nosuch.srp --device xc5vlx110t)

# ------------------------------------------------------------- bitstream --
golden(bitstream_sdram "0 a6e9f16b39d0f48c4f913d0e24f73d46e3a65b930235d6af96c51b6118e88e39"
       ARGS bitstream sdram --device xc5vlx110t)
golden(bitstream_out "0 f920544616af5734906f90ce1ec6732bc17eeed3054a5aaa618bdc7819054479 65416e3b9c1b0efb6fa28f1a9ffefbd862d4bb100ad298bdeca63440f0ab17be"
       OUT fir.bit ARGS bitstream fir --device xc6vlx75t -o fir.bit)
golden(bitstream_report "0 509a04d2e0d76aea840d98625be4b76ee871fc902396e55f571bcf5946511329"
       ARGS bitstream --report fir.srp --device xc5vlx110t)
golden(bitstream_netlist_out "0 693a326b55b8ba481b7de0eff3c27053a69aae0fe4824455a12f9aebd0d55668 d0ecf1d98620c9eb04b147caebb3c5f370c2d473d1cd0c89ef559cb2f432efe4"
       OUT fir_k7.bit ARGS bitstream --netlist fir.net --device xc7k325t -o
         fir_k7.bit)
golden(bitstream_infeasible "1 9d70fd1fa5dee97389a308e19f0eab68390ec754a14fbdd8c86823447bf6cc65"
       ARGS bitstream matmul --device xc5vlx110t)
golden(bitstream_no_device "2 ${no_output}"
       ARGS bitstream fir)

# --------------------------------------------------------------- explore --
golden(explore "0 74cb0fc5bc5a9716e458e0e67c69149b0f8c4a75b9343035bff83bc9b1fe6b50"
       ARGS explore --device xc6vlx240t fir sdram uart)
golden(explore_cross_check "0 d37a3ef136ef826ed5e57d480b2bc9bdf69ed8116ecc87e8a51e47c8a668294d"
       ARGS explore --device xc6vlx240t fir sdram uart crc32 --cross-check
         --workers 2)
golden(explore_global_flags "0 a881852b7f4a64a898092e399e9add0f8af673cf7f3ac3d2bbb57f8330e95488"
       ARGS explore --device xc6vlx240t fir aes --log-level error --cache-dir
         cache)
golden(explore_one_prm "2 ${no_output}"
       ARGS explore --device xc6vlx240t fir)
golden(explore_bad_workers "2 ${no_output}"
       ARGS explore --device xc6vlx240t fir sdram --workers 3x)
golden(explore_no_device "2 ${no_output}"
       ARGS explore fir sdram)

# ------------------------------------------------------------------ rank --
golden(rank "0 7cff646e9938f1749e50e44962db6b4d872530121497532b6ed25bad8c43b41a"
       ARGS rank fir sdram)
golden(rank_workers "0 66968fa8115da808a4bf8a1eee892fb7c53fc274737b0fe3f24ff329be5064c9"
       ARGS rank fir uart aes --workers 3)
golden(rank_no_prm "2 ${no_output}"
       ARGS rank)

# ---------------------------------------------------------------- faults --
golden(faults_default "0 9ea9e78a12b67b57b083cc18f4e7e1272f8b79bc8326a86a9674919c8f522809"
       ARGS faults fir sdram --device xc5vlx110t)
golden(faults_flags "0 31edbf634fb7660b7338200281eb7893b9a7ae72200ae05beba5cd00803df6a4"
       ARGS faults fir sdram uart --device xc5vlx110t --prrs 1 --tasks 40
         --seed 7 --media flash --recovery reschedule --fault-rate 0.3)
golden(faults_globals "0 ffefb862fc6461624e2d9ab57fcb21fe80f1936b211c727252d569a0442497e8"
       ARGS faults fir --device xc5vlx110t --tasks 30 --fault-rate 0.5
         --stall-rate 0.1 --fault-seed 99 --max-retries 1 --media cf)
golden(faults_drop "0 2400e549ff8dce9560d2db4a28650264153dd49d996b8feaba7cb577f3396407"
       ARGS faults fir --device xc5vlx110t --tasks 10 --fault-rate 1.0)
golden(faults_strict "1 ${no_output}"
       ARGS faults fir --device xc5vlx110t --tasks 10 --fault-rate 1.0
         --strict)
golden(faults_no_prm "2 ${no_output}"
       ARGS faults --device xc5vlx110t)
golden(faults_no_device "2 ${no_output}"
       ARGS faults fir)
golden(faults_bad_recovery "2 ${no_output}"
       ARGS faults fir --device xc5vlx110t --recovery retry)
golden(faults_bad_tasks "2 ${no_output}"
       ARGS faults fir --device xc5vlx110t --tasks many)

# -------------------------------------------------------------- optimize --
golden(optimize_prm_count "0 9e43a2f08a2ec87588554ab5a3261842a193149f50e3e1801143463fe17580b9"
       ARGS optimize --device xc6vlx240t --prm-count 8 --rounds 6 --proposals
         4)
golden(optimize_named "0 ee5421906ff05f084ce32a867abfd215cca6d96797e16d1827d0de01a0e9240d"
       ARGS optimize --device xc6vlx240t fir sdram uart crc32 --groups 2
         --seed 5 --rounds 8 --proposals 4 --media flash --workers 2)
golden(optimize_faults "0 654535c30b1d228b1d6a07ff01a90dfae5c29869cc09bc771a8c671ea2412738"
       ARGS optimize --device xc6vlx240t --prm-count 6 --rounds 4 --fault-rate
         0.2 --max-retries 2)
golden(optimize_no_fleet "2 ${no_output}"
       ARGS optimize --device xc6vlx240t)
golden(optimize_no_device "2 ${no_output}"
       ARGS optimize fir sdram)

# -------------------------------------------------------------- schedule --
set(sched_base schedule fir uart sdram --device xc6vlx240t --tasks 60)
golden(schedule_default "0 1527ea92c63b406fbb5fd363a17b2083c70217cfe84d43207f91937160ec36b5"
       ARGS ${sched_base})
golden(schedule_fcfs "0 1527ea92c63b406fbb5fd363a17b2083c70217cfe84d43207f91937160ec36b5"
       ARGS ${sched_base} --policy fcfs)
golden(schedule_priority "0 c9d61b0628c7121e21de0d78062f174005d39c6d438401590feb946a2ed0554f"
       ARGS ${sched_base} --policy priority)
golden(schedule_edf "0 6447120cb2d4fb361542caf4b3e38ae5b23c0d24754ea4033d231422e39e1173"
       ARGS ${sched_base} --policy edf --deadline-factor 1.5)
golden(schedule_poisson "0 d1c6664150dfddf952cb41ac27dd98fb15f02a98498b5aff537b27232038501f"
       ARGS ${sched_base} --workload poisson --seed 3)
golden(schedule_bursty "0 22e21de2ea881f0d91fac70b60dc41a14328c4ca63d3d74046f159ea0c4c991d"
       ARGS ${sched_base} --workload bursty --seed 3)
golden(schedule_dump_trace "0 8bbbd9d456b9fbbc7b3dbcf7b16a32d455a656f7e6313e52ef5812ddc8f5d12c ba9460dadf09ea451d8bd1bbbc4698fdb1e64ec3ddbdcc25601c18c260dc8969"
       OUT trace.jsonl ARGS ${sched_base} --workload bursty --dump-trace
         trace.jsonl)
golden(schedule_trace "0 7d631ae976d6c1af67d7890cc6378ddd6901bf4e4ccbb5a2fe8e78518a9a83db"
       ARGS schedule fir uart sdram --device xc6vlx240t --trace trace.jsonl
         --policy priority)
golden(schedule_trace_beats_workload "0 8ea03d6f91865f2499073c24ace8dd96c219e694e8541d433cb1b6a1904542a0"
       ARGS schedule fir uart sdram --device xc6vlx240t --trace trace.jsonl
         --workload poisson)
golden(schedule_trace_dump "0 61ad70500e2dfae97f0edd3d2893bc2fb73811d35063fd9ef9c933871d3677e4 ba9460dadf09ea451d8bd1bbbc4698fdb1e64ec3ddbdcc25601c18c260dc8969"
       OUT trace_copy.jsonl ARGS schedule fir uart sdram --device xc6vlx240t
         --trace trace.jsonl --dump-trace trace_copy.jsonl)
golden(schedule_deadline_cpu "0 c2e8781d7d212dc212bd1f191b6760f974a2e327f09b4eadd309a70ac3a2fa65"
       ARGS ${sched_base} --deadline-factor 1.2 --cpu-workers 1 --cpu-slowdown
         4)
golden(schedule_no_cpu "0 77edb93d8cca8e01d12b8a8548d3cee195a06d500e2e31b6884a6e311b1a8fec"
       ARGS ${sched_base} --deadline-factor 1.2 --cpu-workers 0)
golden(schedule_prefetch "0 7cf781b9af37aaccb59a8648f25463c0127f5d9f945531f04781f011fa78b412"
       ARGS ${sched_base} --prefetch-rate 50 --media cf --warm-media bram
         --slots 1 --interarrival 0.001 --exec 0.004 --seed 9)
golden(schedule_faults "0 2bae5e981617d6c2522b4b82c5faad3518b14dff83b25ee3c20a23fff1915167"
       ARGS ${sched_base} --fault-rate 0.2 --max-retries 2 --fault-seed 5)
golden(schedule_missing_trace "1 ${no_output}"
       ARGS schedule fir --device xc6vlx240t --trace nosuch.jsonl)
golden(schedule_bad_workload "2 ${no_output}"
       ARGS ${sched_base} --workload steady)
golden(schedule_bad_policy "2 ${no_output}"
       ARGS ${sched_base} --policy lifo)
golden(schedule_no_prm "2 ${no_output}"
       ARGS schedule --device xc6vlx240t)
golden(schedule_zero_slots "2 ${no_output}"
       ARGS ${sched_base} --slots 0)

# ----------------------------------------------------------------- batch --
# One line per op (schedule with "detail": true), plus the unknown-op,
# infeasible, parse and usage envelopes.
file(WRITE "${WORK}/all_ops.jsonl"
  "{\"op\":\"devices\",\"id\":0}\n"
  "{\"op\":\"synth\",\"prm\":\"fir\",\"family\":\"v6\",\"id\":1}\n"
  "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"fir\",\"shaped\":true,\"objective\":\"bitstream\",\"id\":2}\n"
  "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"uart\",\"cross_check\":false,\"id\":3}\n"
  "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"netlist\":\"fir.net\",\"id\":4}\n"
  "{\"op\":\"bitstream\",\"device\":\"xc5vlx110t\",\"prm\":\"sdram\",\"id\":5}\n"
  "{\"op\":\"bitstream\",\"device\":\"xc5vlx110t\",\"report\":\"fir.srp\",\"id\":6}\n"
  "{\"op\":\"explore\",\"device\":\"xc6vlx240t\",\"prms\":[\"fir\",\"sdram\",\"uart\"],\"workers\":2,\"max_groups\":2,\"tasks\":30,\"seed\":3,\"cross_check\":true,\"id\":7}\n"
  "{\"op\":\"rank\",\"prms\":[\"fir\",\"sdram\"],\"workers\":2,\"tasks\":20,\"seed\":5,\"id\":8}\n"
  "{\"op\":\"faults\",\"device\":\"xc5vlx110t\",\"prms\":[\"fir\",\"sdram\"],\"prr_count\":1,\"tasks\":30,\"seed\":9,\"fault_rate\":0.3,\"stall_rate\":0.1,\"fault_seed\":11,\"max_retries\":2,\"media\":\"flash\",\"recovery\":\"reschedule\",\"id\":9}\n"
  "{\"op\":\"faults\",\"device\":\"xc5vlx110t\",\"prms\":[\"fir\"],\"tasks\":10,\"fault_rate\":1.0,\"strict\":true,\"id\":10}\n"
  "{\"op\":\"optimize\",\"device\":\"xc6vlx240t\",\"prm_count\":6,\"groups\":3,\"seed\":2,\"rounds\":4,\"proposals_per_round\":4,\"media\":\"cf\",\"fault_rate\":0.1,\"max_retries\":1,\"workers\":2,\"id\":11}\n"
  "{\"op\":\"optimize\",\"device\":\"xc6vlx240t\",\"prms\":[\"fir\",\"uart\",\"crc32\"],\"rounds\":4,\"id\":12}\n"
  "{\"op\":\"schedule\",\"device\":\"xc6vlx240t\",\"prms\":[\"fir\",\"uart\",\"sdram\"],\"slots\":2,\"policy\":\"edf\",\"workload\":\"bursty\",\"tasks\":20,\"seed\":4,\"mean_interarrival_s\":0.001,\"mean_exec_s\":0.004,\"deadline_factor\":1.5,\"media\":\"cf\",\"warm_media\":\"bram\",\"prefetch_rate_hz\":40,\"fault_rate\":0.1,\"max_retries\":2,\"cpu_workers\":1,\"cpu_slowdown\":4,\"detail\":true,\"id\":13}\n"
  "{\"op\":\"schedule\",\"device\":\"xc6vlx240t\",\"prms\":[\"fir\"],\"workload\":\"trace\",\"trace\":\"{\\\"name\\\":\\\"a\\\",\\\"prm\\\":0,\\\"arrival_s\\\":0.001,\\\"exec_s\\\":0.002,\\\"priority\\\":1}\\n\",\"detail\":true,\"id\":14}\n"
  "{\"op\":\"ping\",\"id\":15}\n"
  "{\"op\":\"nope\",\"id\":16}\n"
  "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"matmul\",\"id\":17}\n"
  "{\"op\":\"faults\",\"device\":\"xc5vlx110t\",\"prms\":[],\"id\":18}\n"
  "{\"op\":\"schedule\",\"device\":\"xc6vlx240t\",\"prms\":[\"fir\"],\"tasks\":\"many\",\"id\":19}\n"
  "{\"id\":20}\n"
  "not json\n")
golden(batch_all_ops "0 899a7ea0a840f055e661666cb8c4247205f808c81541e3824872d18209963f91"
       ARGS batch all_ops.jsonl --workers 2)

if(UPDATE)
  message(STATUS "cli golden digests printed (UPDATE=ON)")
elseif(failures)
  message(FATAL_ERROR "CLI output differs from the recorded golden:${failures}")
else()
  message(STATUS "CLI output matches the recorded golden")
endif()
