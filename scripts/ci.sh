#!/usr/bin/env bash
# Tier-1 gate: build, test, and smoke-run the benches — fully offline.
# The workspace has no registry dependencies (tests/hermetic.rs enforces
# this), so --offline is not just a flag but a guarantee being tested.
#
# Usage:
#   scripts/ci.sh               full gate (what .github/workflows/ci.yml runs)
#   scripts/ci.sh --fast        pre-push subset: fmt + clippy + tests +
#                               benchmark build
#   scripts/ci.sh --stage NAME  one named gate (see --list); stages that
#                               read the golden trace artifact produce it
#                               first if it is missing
#   scripts/ci.sh --list        print every stage name and its label
#
# Every stage is timed; a wall-clock summary prints at the end of a
# green run so regressions in CI latency are visible in the log.
set -euo pipefail
cd "$(dirname "$0")/.."

# The full gate in order: `name` is the `--stage` handle, the function
# is `stage_<name>`, and the label is what the log prints.
all_stages=(fmt clippy build test golden_trace golden_spans timeline
            replay_figs determinism sweep_determinism golden_figs
            scenarios scale_smoke bench_smoke perfbench)

stage_label() {
    case "$1" in
        fmt) echo "rustfmt (check only)" ;;
        clippy) echo "clippy (all targets, warnings are errors)" ;;
        build) echo "build (release, offline)" ;;
        test) echo "tests (offline)" ;;
        golden_trace) echo "golden trace artifact" ;;
        golden_spans) echo "golden span decomposition" ;;
        timeline) echo "timeline gate (golden CSVs, sampling inert)" ;;
        replay_figs) echo "replay figures gate (byte-deterministic)" ;;
        determinism) echo "determinism gate (fault-free + faulty)" ;;
        sweep_determinism) echo "sweep engine gate (--jobs 1 vs --jobs 4)" ;;
        golden_figs) echo "golden figures gate (paper-scale sweep)" ;;
        scenarios) echo "scenario library gate (golden summaries)" ;;
        scale_smoke) echo "scale smoke (2000 sensors under wall budget)" ;;
        bench_smoke) echo "bench smoke (one iteration per target)" ;;
        perfbench) echo "benchmark self-test (folds vs live runs, exact ledgers)" ;;
        *) echo "$1" ;;
    esac
}

usage() {
    echo "usage: scripts/ci.sh [--fast | --stage NAME | --list]" >&2
    exit 2
}

fast=0
only_stage=""
case "${1:-}" in
    --fast) fast=1 ;;
    --stage)
        only_stage="${2:-}"
        [ -n "$only_stage" ] || usage
        ;;
    --list)
        for name in "${all_stages[@]}"; do
            printf '%-20s %s\n' "$name" "$(stage_label "$name")"
        done
        exit 0
        ;;
    "") ;;
    *) usage ;;
esac

stage_names=()
stage_secs=()

run_stage() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    stage_names+=("$name")
    stage_secs+=("$((SECONDS - t0))")
}

print_timings() {
    echo "==> stage timings"
    local i
    for i in "${!stage_names[@]}"; do
        printf '    %-42s %5ss\n' "${stage_names[$i]}" "${stage_secs[$i]}"
    done
}

robonet() {
    cargo run -q --release --offline -p robonet-cli --bin robonet -- "$@"
}

stage_fmt() {
    cargo fmt --check
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_build() {
    # The root manifest's `default-members` already covers every
    # package, binary included; --workspace just says so explicitly.
    cargo build --release --offline --workspace
}

stage_test() {
    cargo test -q --offline --workspace
}

# Absolute, because cargo runs bench binaries with the package dir
# (crates/bench) as cwd — a relative ROBONET_BENCH_JSON would land there.
artifact_dir="$PWD/target/ci-artifacts"

stage_golden_trace() {
    mkdir -p "$artifact_dir"
    local trace="$artifact_dir/golden.jsonl"
    local run_out="$artifact_dir/golden.run.txt"
    local stats_out="$artifact_dir/golden.stats.txt"
    robonet run --alg dynamic --k 1 --scale 64 --seed 7 --trace-out "$trace" > "$run_out"
    test -s "$trace" || { echo "trace artifact is empty" >&2; exit 1; }
    test -s "$artifact_dir/golden.manifest.json" || { echo "manifest missing" >&2; exit 1; }
    # Every line must be one JSON object (cheap structural check; the
    # full parse runs in the test suite).
    if grep -cve '^{.*}$' "$trace" > /dev/null; then
        echo "malformed JSONL line in $trace:" >&2
        grep -nve '^{.*}$' "$trace" | head -3 >&2
        exit 1
    fi
    robonet stats "$trace" > "$stats_out"
    # The offline aggregate must reproduce the run's own headline
    # figures verbatim (travel and hops are bit-exact by construction).
    local key a b
    for key in "failures:" "replacements:" "travel per failure:" "report hops:"; do
        a=$(grep -F "$key" "$run_out")
        b=$(grep -F "$key" "$stats_out")
        if [ "$a" != "$b" ]; then
            echo "stats disagrees with run on \`$key\`:" >&2
            echo "  run:   $a" >&2
            echo "  stats: $b" >&2
            exit 1
        fi
    done
}

stage_golden_spans() {
    local spans_out="$artifact_dir/golden.spans.csv"
    robonet spans "$artifact_dir/golden.jsonl" --csv > "$spans_out"
    if ! diff -u tests/golden/spans_dynamic.csv "$spans_out"; then
        echo "span decomposition drifted from tests/golden/spans_dynamic.csv" >&2
        echo "(ROBONET_UPDATE_GOLDEN=1 cargo test -q golden_spans to regenerate)" >&2
        exit 1
    fi
}

stage_timeline() {
    # Telemetry timeline gate: sampled runs must (a) leave the protocol
    # event stream byte-identical to the unsampled golden trace and
    # (b) render timeline CSVs byte-identical to the committed goldens
    # for every algorithm.
    mkdir -p "$artifact_dir"
    local alg trace csv
    for alg in centralized fixed dynamic; do
        trace="$artifact_dir/timeline_${alg}.jsonl"
        csv="$artifact_dir/timeline_${alg}.csv"
        robonet run --alg "$alg" --k 1 --scale 64 --seed 7 \
            --sample-every 100 --trace-out "$trace" > /dev/null
        robonet timeline "$trace" --csv > "$csv"
        if ! cmp "tests/golden/timeline_${alg}.csv" "$csv"; then
            echo "timeline gate failed: $alg CSV drifted from tests/golden/timeline_${alg}.csv" >&2
            echo "(ROBONET_UPDATE_GOLDEN=1 cargo test -q golden_timeline to regenerate)" >&2
            exit 1
        fi
    done
    # Sampling is inert: strip the telemetry records from the sampled
    # dynamic trace and what remains must be the bytes the unsampled
    # golden run wrote.
    if ! grep -v '"ev":"telemetry_sample"' "$artifact_dir/timeline_dynamic.jsonl" \
            | grep -v '"ev":"invariant_violated"' \
            | cmp - "$artifact_dir/golden.jsonl"; then
        echo "timeline gate failed: sampling perturbed the protocol event stream" >&2
        exit 1
    fi
}

stage_replay_figs() {
    # The trace analyzer must be byte-deterministic: render the golden
    # trace's replay figures twice, byte-diff the pair, then byte-diff
    # against the committed goldens. The final copies stay in
    # $artifact_dir so every CI run uploads viewable SVGs.
    local kind flag out_a out_b
    for kind in anim heatmap waterfall; do
        case "$kind" in
            anim) flag=--svg ;;
            heatmap) flag=--heatmap ;;
            waterfall) flag=--waterfall ;;
        esac
        out_a="$artifact_dir/replay_${kind}.svg"
        out_b="$artifact_dir/replay_${kind}.second.svg"
        robonet replay "$artifact_dir/golden.jsonl" "$flag" "$out_a" > /dev/null
        robonet replay "$artifact_dir/golden.jsonl" "$flag" "$out_b" > /dev/null
        if ! cmp "$out_a" "$out_b"; then
            echo "replay gate failed: two $kind renders differ" >&2
            exit 1
        fi
        rm "$out_b"
        if ! cmp "tests/golden/replay_${kind}_dynamic.svg" "$out_a"; then
            echo "replay gate failed: $kind drifted from tests/golden/replay_${kind}_dynamic.svg" >&2
            echo "(ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-cli replay_golden to regenerate)" >&2
            exit 1
        fi
    done
    # Follow mode on the finished artifact must land on the offline
    # answer (the tail-follow loop replays to completion and exits).
    robonet replay "$artifact_dir/golden.jsonl" > "$artifact_dir/replay_offline.txt"
    robonet replay --follow "$artifact_dir/golden.jsonl" \
        > "$artifact_dir/replay_follow.txt" 2> /dev/null
    if ! cmp "$artifact_dir/replay_offline.txt" "$artifact_dir/replay_follow.txt"; then
        echo "replay gate failed: --follow disagrees with offline replay" >&2
        exit 1
    fi
}

stage_determinism() {
    # Same seed, same config → byte-identical summary, twice over: once
    # fault-free and once with the full fault plan armed (loss, robot
    # breakdowns with in-place repair, slowdowns). Only the `profile:`
    # line (wall-clock) may differ between runs.
    mkdir -p "$artifact_dir"
    robonet run --alg dynamic --k 1 --scale 64 --seed 7 \
        > "$artifact_dir/det_free_a.txt"
    robonet run --alg dynamic --k 1 --scale 64 --seed 7 \
        > "$artifact_dir/det_free_b.txt"
    local faulty=(run --alg centralized --k 1 --scale 64 --seed 7
                  --loss 0.05 --breakdown 8000 --breakdown-repair 1600
                  --slow-prob 0.3)
    robonet "${faulty[@]}" > "$artifact_dir/det_faulty_a.txt"
    robonet "${faulty[@]}" > "$artifact_dir/det_faulty_b.txt"
    local pair
    for pair in det_free det_faulty; do
        if ! diff <(grep -v '^profile:' "$artifact_dir/${pair}_a.txt") \
                  <(grep -v '^profile:' "$artifact_dir/${pair}_b.txt"); then
            echo "determinism gate failed: $pair runs differ (see $artifact_dir)" >&2
            exit 1
        fi
    done
    # The faulty run must actually have injected something, or the gate
    # silently degrades into a second fault-free check.
    if ! grep -q '^faults injected:' "$artifact_dir/det_faulty_a.txt"; then
        echo "determinism gate: faulty golden run reported no injected faults" >&2
        exit 1
    fi
}

stage_sweep_determinism() {
    # The sweep engine's headline contract, checked on the real CLI:
    # the entire `robonet sweep` output (per-cell CSV plus merged
    # aggregate) is byte-identical at 1 worker and 4 workers.
    mkdir -p "$artifact_dir"
    robonet sweep --ks 1 --seeds 1,2 --scale 64 --jobs 1 \
        > "$artifact_dir/sweep_jobs1.txt"
    robonet sweep --ks 1 --seeds 1,2 --scale 64 --jobs 4 \
        > "$artifact_dir/sweep_jobs4.txt"
    if ! diff "$artifact_dir/sweep_jobs1.txt" "$artifact_dir/sweep_jobs4.txt"; then
        echo "sweep engine gate failed: --jobs 1 and --jobs 4 outputs differ" >&2
        exit 1
    fi
    # The output must actually contain the merged aggregate, or the
    # byte-diff is comparing less than it claims.
    grep -q '^# merged aggregate' "$artifact_dir/sweep_jobs1.txt" || {
        echo "sweep output is missing the merged aggregate block" >&2
        exit 1
    }
}

stage_golden_figs() {
    # The paper-scale sweep grid must stay byte-identical to the checked
    # in reference: any change to PRNG draws, visit order, or float
    # arithmetic anywhere in the stack shows up here first.
    mkdir -p "$artifact_dir"
    robonet sweep --ks 2,3,4 --seeds 1,2 --scale 64 --jobs 4 \
        > "$artifact_dir/sweep_paper.csv"
    if ! cmp tests/golden/sweep_paper.csv "$artifact_dir/sweep_paper.csv"; then
        echo "golden figures gate failed: paper-scale sweep drifted" >&2
        diff -u tests/golden/sweep_paper.csv "$artifact_dir/sweep_paper.csv" | head -20 >&2
        exit 1
    fi
}

stage_scale_smoke() {
    # A 2000-sensor fault-free run (paper density, 4x4 fleet) must
    # finish inside a generous wall budget: the hot path regressing an
    # order of magnitude fails CI instead of only slowing the benches.
    mkdir -p "$artifact_dir"
    local budget=120
    local t0=$SECONDS
    timeout "$budget" cargo run -q --release --offline -p robonet-cli --bin robonet -- \
        run --alg dynamic --k 4 --sensors 2000 --scale 64 --seed 1 \
        > "$artifact_dir/scale_smoke.txt" || {
        echo "scale smoke failed or exceeded ${budget}s wall budget" >&2
        exit 1
    }
    echo "    2000-sensor run: $((SECONDS - t0))s (budget ${budget}s)"
    grep -q '^replacements:' "$artifact_dir/scale_smoke.txt" || {
        echo "scale smoke produced no summary" >&2
        exit 1
    }
}

# A run summary with the legitimately non-deterministic wall-clock
# `profile:` line and any trailing blank lines removed — the exact
# normalization the scenario golden tests apply.
normalize_summary() {
    grep -v '^profile:' "$1" | awk '
        { lines[NR] = $0; if ($0 != "") last = NR }
        END { for (i = 1; i <= last; i++) print lines[i] }
    '
}

stage_scenarios() {
    # Scenario library gate: every scenarios/*.rjson runs fixed-seed and
    # must reproduce its committed golden summary byte for byte, and the
    # paper_baseline scenario must additionally match the flag run it
    # encodes — proving the declarative path perturbs nothing.
    mkdir -p "$artifact_dir"
    local file name out matched=0
    for file in scenarios/*.rjson; do
        name=$(basename "$file" .rjson)
        out="$artifact_dir/scenario_${name}.txt"
        echo "--> $name"
        robonet run --scenario "$file" > "$out"
        if ! diff <(normalize_summary "$out") "tests/golden/scenario_${name}.txt"; then
            echo "scenario gate failed: $name drifted from tests/golden/scenario_${name}.txt" >&2
            echo "(ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-cli scenario_golden to regenerate)" >&2
            exit 1
        fi
        matched=$((matched + 1))
    done
    [ "$matched" -ge 6 ] || {
        echo "scenario gate: library shrank to $matched scenarios" >&2
        exit 1
    }
    robonet run --alg dynamic --k 2 --scale 64 --seed 1 \
        > "$artifact_dir/scenario_flag_equivalent.txt"
    if ! diff <(normalize_summary "$artifact_dir/scenario_paper_baseline.txt") \
              <(normalize_summary "$artifact_dir/scenario_flag_equivalent.txt"); then
        echo "scenario gate failed: paper_baseline.rjson differs from its flag-equivalent run" >&2
        exit 1
    fi
}

stage_bench_smoke() {
    mkdir -p "$artifact_dir"
    local bench
    for bench in fig2_motion fig3_hops fig4_updates ablation_partition \
                 ablation_broadcast ablation_dispatch ablation_baseline \
                 micro_substrates degradation_curve; do
        echo "--> $bench"
        ROBONET_BENCH_SMOKE=1 cargo bench -q --offline -p robonet-bench --bench "$bench"
    done
    # The sweep-engine bench also asserts parallel == sequential before
    # timing; its raw statistics become the BENCH_sweep.json artifact.
    echo "--> sweep_engine"
    ROBONET_BENCH_SMOKE=1 ROBONET_BENCH_JSON="$artifact_dir/BENCH_sweep.json" \
        cargo bench -q --offline -p robonet-bench --bench sweep_engine
    test -s "$artifact_dir/BENCH_sweep.json" || {
        echo "BENCH_sweep.json artifact missing or empty" >&2
        exit 1
    }
    # The packet-scale bench tracks simulator throughput across sizes;
    # its raw statistics become the BENCH_scale.json artifact. The JSON
    # writer appends, so drop any artifact left by an earlier run first.
    echo "--> packet_scale"
    rm -f "$artifact_dir/BENCH_scale.json"
    ROBONET_BENCH_SMOKE=1 ROBONET_BENCH_JSON="$artifact_dir/BENCH_scale.json" \
        cargo bench -q --offline -p robonet-bench --bench packet_scale
    test -s "$artifact_dir/BENCH_scale.json" || {
        echo "BENCH_scale.json artifact missing or empty" >&2
        exit 1
    }
    # Telemetry guardrail: packet_scale runs NullSink with sampling
    # disabled, so the sampling machinery must cost it nothing. Each
    # smoke median must stay under 0.75x the committed pre-refactor
    # baseline — the simulator currently runs at roughly half the
    # baseline, so this trips well before a real regression ships
    # while staying insensitive to shared-runner noise.
    awk -F'"median_ns":' '
        function bench_of(line) {
            match(line, /"bench":"[^"]*"/)
            return substr(line, RSTART + 9, RLENGTH - 10)
        }
        NR==FNR { split($2, a, ","); base[bench_of($1)] = a[1]; next }
        { split($2, a, ","); fresh[bench_of($1)] = a[1] }
        END {
            for (name in base) {
                if (!(name in fresh)) {
                    printf "bench %s missing from fresh artifact\n", \
                           name > "/dev/stderr"
                    bad = 1
                } else if (fresh[name] + 0 > 0.75 * base[name]) {
                    printf "%s: median %.0f ns > 0.75 x baseline %.0f ns\n", \
                           name, fresh[name], base[name] > "/dev/stderr"
                    bad = 1
                }
            }
            # A bench present fresh but absent from the baseline would
            # otherwise pass silently — and ship ungated forever.
            for (name in fresh) {
                if (!(name in base)) {
                    printf "bench %s has no committed baseline — add it to %s\n", \
                           name, \
                           "tests/golden/BENCH_scale_baseline.json" > "/dev/stderr"
                    bad = 1
                }
            }
            exit bad
        }
    ' tests/golden/BENCH_scale_baseline.json "$artifact_dir/BENCH_scale.json" || {
        echo "bench smoke: packet_scale regressed vs tests/golden/BENCH_scale_baseline.json" >&2
        exit 1
    }
}

stage_perfbench() {
    # The benchmark is a package of its own; its quick self-test checks
    # every fold against its live run and that exact ledgers repeat.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

if [ -n "$only_stage" ]; then
    declare -F "stage_$only_stage" > /dev/null || {
        echo "unknown stage \`$only_stage\` (scripts/ci.sh --list)" >&2
        exit 2
    }
    # These gates read the golden trace artifact; produce it first when
    # a standalone invocation has no earlier stage to rely on.
    case "$only_stage" in
        golden_spans|timeline|replay_figs)
            if [ ! -s "$artifact_dir/golden.jsonl" ]; then
                run_stage "$(stage_label golden_trace)" stage_golden_trace
            fi
            ;;
    esac
    run_stage "$(stage_label "$only_stage")" "stage_$only_stage"
    print_timings
    echo "==> ci.sh --stage $only_stage: green"
    exit 0
fi

run_stage "$(stage_label fmt)" stage_fmt
run_stage "$(stage_label clippy)" stage_clippy
if [ "$fast" = 1 ]; then
    run_stage "$(stage_label test)" stage_test
    # The benchmark is its own workspace, so nothing above compiles it;
    # build it so a public-API change it depends on cannot break it
    # unseen (the full gate's perfbench stage also runs its self-test).
    run_stage "benchmark build (perfbench, its own workspace)" \
        cargo build --release --offline --manifest-path perfbench/Cargo.toml
    print_timings
    echo "==> ci.sh --fast: all green"
    exit 0
fi
for name in "${all_stages[@]}"; do
    case "$name" in fmt|clippy) continue ;; esac
    run_stage "$(stage_label "$name")" "stage_$name"
done
print_timings
echo "==> ci.sh: all green"
