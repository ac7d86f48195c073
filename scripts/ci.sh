#!/usr/bin/env bash
# Tier-1 gate: build, test, golden artifacts and experiment runs — fully
# offline.
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
all_stages=(fmt clippy build doc test deep_props golden_trace golden_spans
            timeline replay_figs determinism sweep_determinism golden_figs
            scenarios experiments scale perfbench)

stage_label() {
    case "$1" in
        fmt) echo "rustfmt (check only)" ;;
        clippy) echo "clippy (all targets, warnings are errors)" ;;
        build) echo "build (release, offline)" ;;
        doc) echo "rustdoc (warnings are errors)" ;;
        test) echo "tests (offline)" ;;
        deep_props) echo "exactness properties, 20,000 cases" ;;
        golden_trace) echo "golden trace artifact" ;;
        golden_spans) echo "golden span decomposition" ;;
        timeline) echo "timeline gate (golden CSVs, sampling inert)" ;;
        replay_figs) echo "replay figures gate (byte-deterministic)" ;;
        determinism) echo "determinism gate (fault-free + faulty)" ;;
        sweep_determinism) echo "sweep engine gate (--jobs 1 vs --jobs 4)" ;;
        golden_figs) echo "golden figures gate (paper-scale sweep)" ;;
        scenarios) echo "scenario library gate (golden summaries)" ;;
        experiments) echo "experiment binaries and the scalability table" ;;
        scale) echo "1k/5k/10k-sensor runs (exact golden summaries)" ;;
        perfbench) echo "benchmark self-test and exact-ledger golden" ;;
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

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
}

stage_test() {
    cargo test -q --offline --workspace
}

stage_deep_props() {
    # The properties that hold fast paths to their exact counterparts,
    # at far more cases than the test stage gives them: the flow
    # engine's grid nearest-robot query against nearest_site and its
    # cell lists against each box's span, the t = 0 arming cutoff
    # against the exact lifetime, the floor-free cell lookups against
    # floor, the MAC's outcomes against explicit arriving sets, the
    # branch-free static-hearer build against the branchy loop and the
    # grid query (prop_static_hearers_match_the_grid_query), and the
    # timer wheel (lists through the event slab, deferred reclamation of
    # cancelled slots) against an ordered-map model, across every store
    # and under cancellation.
    local cases=20000
    ROBONET_CHECK_CASES=$cases cargo test -q --release --offline -p robonet-core --lib -- \
        fastsim::tests::pruned_nearest_matches_the_full_scan \
        fastsim::tests::prop_grid_lists_each_robot_in_exactly_its_span \
        fastsim::tests::prop_grid_lookups_equal_floor \
        world::tests::prop_arming_schedules_the_exact_expiries
    ROBONET_CHECK_CASES=$cases cargo test -q --release --offline -p robonet-wsn --lib -- \
        failure::tests::prop_certainly_past_draws_end_past_the_horizon
    ROBONET_CHECK_CASES=$cases cargo test -q --release --offline -p robonet-geom --lib -- \
        spatial::tests::prop_cell_lookups_equal_floor \
        partition::tests::prop_subarea_lookups_equal_floor
    ROBONET_CHECK_CASES=$cases cargo test -q --release --offline -p robonet-radio --lib -- \
        engine::tests::prop_mac_outcomes_match_explicit_incoming_sets \
        medium::tests::prop_static_hearers_match_the_grid_query
    ROBONET_CHECK_CASES=$cases cargo test -q --release --offline -p robonet-des --test prop_queue -- \
        queue_matches_ordered_map_model \
        wheel_lanes_preserve_order \
        cancellation_is_exact
}

# Absolute, because the experiments stage runs the figure binaries
# from inside the artifact directory.
artifact_dir="$PWD/target/ci-artifacts"
release_dir="$PWD/target/release"

# `robonet stats` over a trace must answer like the `run` that wrote
# it: the counts and the Figure 2/3 averages verbatim (bit-exact by
# construction), fleet travel to the printed metre (stats sums the
# ended legs, run the robot odometers), and the repair delay to the
# printed precision (the run subtracts nanosecond timestamps, stats
# second-valued ones).
stats_agrees_with_run() {
    local run_out="$1" stats_out="$2"
    local key a b
    for key in "failures:" "replacements:" "travel per failure:" "report hops:" \
               "fleet travel:"; do
        a=$(grep -F "$key" "$run_out")
        b=$(grep -F "$key" "$stats_out")
        if [ "$a" != "$b" ]; then
            echo "stats disagrees with run on \`$key\` ($stats_out):" >&2
            echo "  run:   $a" >&2
            echo "  stats: $b" >&2
            exit 1
        fi
    done
    a=$(awk '/^repair delay:/ {print $3}' "$run_out")
    b=$(awk '/^repair delay:/ {print $3}' "$stats_out")
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
        echo "stats disagrees with run on the repair delay ($stats_out): run $a s, stats $b s" >&2
        exit 1
    fi
}

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
    stats_agrees_with_run "$run_out" "$stats_out"
    # A lossy run re-dispatches stalled repairs; the fault-free golden
    # trace carries no redispatch, so it cannot catch a stats fold that
    # mispairs dispatches with replacements.
    local lossy="$artifact_dir/lossy.jsonl"
    robonet run --alg centralized --k 2 --scale 64 --seed 1 --loss 0.2 \
        --trace-out "$lossy" > "$artifact_dir/lossy.run.txt"
    robonet stats "$lossy" > "$artifact_dir/lossy.stats.txt"
    stats_agrees_with_run "$artifact_dir/lossy.run.txt" "$artifact_dir/lossy.stats.txt"
    # Breakdowns, slowdowns and attrition cut legs short; a cut leg
    # must still end in the trace with the metres actually driven.
    local cut="$artifact_dir/cut_legs.jsonl"
    robonet run --alg dynamic --k 2 --scale 64 --seed 2 --loss 0.1 --breakdown 3000 \
        --breakdown-repair 200 --slow-prob 0.5 --slow-factor 0.5 \
        --trace-out "$cut" > "$artifact_dir/cut_legs.run.txt"
    robonet stats "$cut" > "$artifact_dir/cut_legs.stats.txt"
    stats_agrees_with_run "$artifact_dir/cut_legs.run.txt" "$artifact_dir/cut_legs.stats.txt"
    local wave="$artifact_dir/attrition_wave.jsonl"
    robonet run --scenario scenarios/attrition_wave.rjson --trace-out "$wave" \
        > "$artifact_dir/attrition_wave.run.txt"
    robonet stats "$wave" > "$artifact_dir/attrition_wave.stats.txt"
    stats_agrees_with_run "$artifact_dir/attrition_wave.run.txt" \
        "$artifact_dir/attrition_wave.stats.txt"
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
    local kind flag out_a out_b pair
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
    # The state at a cut and the repair-latency heatmap of the same
    # trace, and the failure heatmap of a region-weighted run, which
    # replays on the weighted deployment its manifest lists.
    robonet replay "$artifact_dir/golden.jsonl" --at 400 > "$artifact_dir/replay_at.txt"
    robonet replay "$artifact_dir/golden.jsonl" --heatmap "$artifact_dir/replay_latency.svg" \
        --metric latency > /dev/null
    robonet run --scenario scenarios/dense_core.rjson \
        --trace-out "$artifact_dir/dense_core.jsonl" > /dev/null
    robonet replay "$artifact_dir/dense_core.jsonl" \
        --heatmap "$artifact_dir/replay_dense_core.svg" > /dev/null
    local golden
    for pair in replay_at.txt:replay_at_dynamic.txt \
            replay_latency.svg:replay_heatmap_latency_dynamic.svg \
            replay_dense_core.svg:replay_heatmap_dense_core.svg; do
        golden="tests/golden/${pair#*:}"
        if ! cmp "$golden" "$artifact_dir/${pair%%:*}"; then
            echo "replay gate failed: ${pair%%:*} drifted from $golden" >&2
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

# Copies stdin to stdout without its trailing blank lines.
trim_trailing_blank() {
    awk '
        { lines[NR] = $0; if ($0 != "") last = NR }
        END { for (i = 1; i <= last; i++) print lines[i] }
    '
}

# A run summary with the legitimately non-deterministic wall-clock
# `profile:` line and any trailing blank lines removed — the exact
# normalization the scenario golden tests apply.
normalize_summary() {
    grep -v '^profile:' "$1" | trim_trailing_blank
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

# Runs one experiment binary of robonet-bench with the remaining
# arguments; fails on a non-zero exit or when no stdout line matches the
# table-row pattern `$2`.
run_experiment() {
    local bin="$1" row="$2"
    shift 2
    echo "--> $bin $*"
    local out="$artifact_dir/experiment_${bin}.txt"
    "$release_dir/$bin" "$@" > "$out"
    grep -Eq "$row" "$out" || {
        echo "experiments gate failed: $bin printed no table rows (see $out)" >&2
        exit 1
    }
}

stage_experiments() {
    # Every paper experiment and ablation still runs and prints its
    # table. The figure binaries write figN.svg into their cwd, so they
    # run from inside the artifact directory.
    mkdir -p "$artifact_dir"
    cargo build -q --release --offline -p robonet-bench --bins
    run_experiment ablation_partition '^  (Square|Hex) +[0-9]+ robots: travel'
    run_experiment ablation_broadcast '^  prune [a-z0-9.]+ *: updates'
    run_experiment ablation_dispatch '^  lifetime +[0-9.]+s '
    run_experiment ablation_baseline '^  (Direct|Cascaded): total'
    run_experiment degradation_curve '^  [a-z()]+ +[0-9]+% '
    local fig
    for fig in fig2 fig3 fig4; do
        (cd "$artifact_dir" &&
            run_experiment "$fig" '^(fixed|dynamic|centralized) +[0-9]' \
                --scale 64 --ks 2,3 --seeds 1)
        test -s "$artifact_dir/$fig.svg" || {
            echo "experiments gate failed: $fig wrote no $fig.svg" >&2
            exit 1
        }
    done
    # The scalability example is the one caller that drives every
    # registry algorithm, fixed-hex included, through the flow engine's
    # report hook; its table is deterministic at any worker count.
    echo "--> scalability example"
    local table="$artifact_dir/scalability.txt"
    cargo run -q --release --offline --example scalability > "$table"
    if ! diff -u tests/golden/scalability.txt "$table"; then
        echo "experiments gate failed: the scalability table drifted from tests/golden/scalability.txt" >&2
        echo "(to accept an intended change: cp $table tests/golden/scalability.txt)" >&2
        exit 1
    fi
}

stage_scale() {
    # Large-field work, gated exactly: paper-density fields at 1000,
    # 5000 and 10000 sensors (dynamic, fault-free, x64, seed 1) must
    # reproduce tests/golden/scale_packet.txt byte for byte — events,
    # queue high-water, figures and the per-class transmission table.
    # Only the wall-clock tail of the `profile:` line is dropped. Each
    # run also has an order-of-magnitude wall budget (~7x a 2-core dev
    # host) so a hot path slowed tenfold fails here, while host speed
    # alone cannot turn the gate red.
    mkdir -p "$artifact_dir"
    cargo build -q --release --offline -p robonet-cli --bin robonet
    local out="$artifact_dir/scale_packet.txt" size sensors k budget cmd
    : > "$out"
    for size in 1000:5:10 5000:10:60 10000:10:240; do
        IFS=: read -r sensors k budget <<< "$size"
        cmd=(run --alg dynamic --k "$k" --sensors "$sensors" --scale 64 --seed 1)
        echo "--> $sensors sensors (budget ${budget}s)"
        echo "# robonet ${cmd[*]}" >> "$out"
        timeout "$budget" "$release_dir/robonet" "${cmd[@]}" \
            > "$artifact_dir/scale_${sensors}.txt" || {
            echo "scale gate: $sensors-sensor run failed or exceeded ${budget}s" >&2
            exit 1
        }
        sed -E '/^profile:/s/ in [0-9.]+ wall-s \([0-9.]+x real time\)$//' \
            "$artifact_dir/scale_${sensors}.txt" | trim_trailing_blank >> "$out"
    done
    if ! diff -u tests/golden/scale_packet.txt "$out"; then
        echo "scale gate failed: large-field runs drifted from tests/golden/scale_packet.txt" >&2
        echo "(to accept an intended change: cp $out tests/golden/scale_packet.txt)" >&2
        exit 1
    fi
}

stage_perfbench() {
    # The benchmark is a package of its own; its quick self-test checks
    # every fold against its live run and that exact ledgers repeat.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    # The exact per-layer work counts of each workload's quick traced
    # run must equal the committed ledger byte for byte, so any change
    # in per-layer work shows up in review as a delta.
    mkdir -p "$artifact_dir"
    local ledger="$artifact_dir/perfbench_ledger.txt" workload
    : > "$ledger"
    for workload in paper_grid observed_repair flow_fleet; do
        cargo run -q --release --offline --manifest-path perfbench/Cargo.toml \
            --bin perfbench-traced -- --workload "$workload" --seed 1 --seconds 0.01 --quick \
            | grep '^{"ledger":' >> "$ledger"
    done
    if ! diff -u tests/golden/perfbench_ledger.txt "$ledger"; then
        echo "perfbench gate failed: exact ledger drifted from tests/golden/perfbench_ledger.txt" >&2
        echo "(regenerate: for w in paper_grid observed_repair flow_fleet; do" \
             "cargo run -q --release --offline --manifest-path perfbench/Cargo.toml" \
             "--bin perfbench-traced -- --workload \$w --seed 1 --seconds 0.01 --quick" \
             "| grep '^{\"ledger\":'; done > tests/golden/perfbench_ledger.txt)" >&2
        exit 1
    fi
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
