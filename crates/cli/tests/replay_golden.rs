//! Golden gating for the replay renderers: for every algorithm the
//! animation, heatmap and waterfall SVGs must be byte-identical across
//! invocations *and* byte-identical to the committed goldens.
//!
//! Regenerate after an intentional rendering change with
//! `ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-cli replay_golden`.

use robonet_cli::run_cli;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Repo-root golden directory — shared with the spans CSV goldens.
fn golden_path(kind: &str, alg: &str) -> std::path::PathBuf {
    golden_file(&format!("replay_{kind}_{alg}.svg"))
}

fn golden_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Byte-diffs `actual` against `tests/golden/<name>` (rewrites the
/// golden instead under `ROBONET_UPDATE_GOLDEN`).
fn assert_golden(name: &str, actual: &str) {
    let path = golden_file(name);
    if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"));
    assert_eq!(
        actual, golden,
        "output drifted from {path:?} (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
    );
}

/// Writes the `--trace-out` artifact (and its manifest) of `robonet
/// run` with `run_args`, returning the trace path.
fn traced(name: &str, run_args: &[&str]) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join(name);
    let trace_s = trace.to_str().expect("utf-8 tmpdir").to_string();
    let mut argv = args(&["run"]);
    argv.extend(args(run_args));
    argv.extend(args(&["--trace-out", &trace_s]));
    run_cli(&argv).expect("traced run succeeds");
    trace_s
}

/// Traces the same seed-pinned run `scripts/ci.sh` uses for its golden
/// artifact, renders every replay figure twice, and byte-diffs both
/// against each other and against the committed goldens.
#[test]
fn replay_figures_match_goldens_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for alg in ["centralized", "fixed", "dynamic"] {
        let trace = dir.join(format!("replay_golden_{alg}.jsonl"));
        let trace_s = trace.to_str().expect("utf-8 tmpdir");
        run_cli(&args(&[
            "run",
            "--alg",
            alg,
            "--k",
            "1",
            "--scale",
            "64",
            "--seed",
            "7",
            "--trace-out",
            trace_s,
        ]))
        .expect("traced run succeeds");

        let render = |tag: &str| -> Vec<(String, std::path::PathBuf)> {
            let outs: Vec<(String, std::path::PathBuf)> = ["anim", "heatmap", "waterfall"]
                .iter()
                .map(|kind| {
                    (
                        kind.to_string(),
                        dir.join(format!("replay_{kind}_{alg}_{tag}.svg")),
                    )
                })
                .collect();
            run_cli(&args(&[
                "replay",
                trace_s,
                "--svg",
                outs[0].1.to_str().unwrap(),
                "--heatmap",
                outs[1].1.to_str().unwrap(),
                "--waterfall",
                outs[2].1.to_str().unwrap(),
            ]))
            .expect("replay renders");
            outs
        };

        let first = render("a");
        let second = render("b");
        for ((kind, a), (_, b)) in first.iter().zip(&second) {
            let a = std::fs::read(a).expect("first render exists");
            let b = std::fs::read(b).expect("second render exists");
            assert_eq!(a, b, "{alg}/{kind}: two renders must be byte-identical");

            let svg = String::from_utf8(a).expect("SVG is UTF-8");
            assert!(svg.starts_with("<svg"), "{alg}/{kind}: well-formed head");
            assert!(svg.ends_with("</svg>"), "{alg}/{kind}: well-formed tail");

            let path = golden_path(kind, alg);
            if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
                std::fs::write(&path, &svg).expect("write golden SVG");
                continue;
            }
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{alg}/{kind}: missing golden {path:?}: {e}"));
            assert_eq!(
                svg, golden,
                "{alg}/{kind}: rendering drifted from {path:?} \
                 (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
            );
        }

        // The animation carries SMIL timelines and the field overlay;
        // the waterfall carries the span stages.
        let anim = std::fs::read_to_string(&first[0].1).unwrap();
        assert!(anim.contains("<animate"), "{alg}: animation has timelines");
        assert!(anim.contains("<polygon"), "{alg}: Voronoi overlay drawn");
        let waterfall = std::fs::read_to_string(&first[2].1).unwrap();
        assert!(
            waterfall.contains("travel") && waterfall.contains("install"),
            "{alg}: waterfall legend names the stages"
        );
    }
}

/// The renderings the per-algorithm loop leaves out, on the dynamic
/// trace `scripts/ci.sh` replays: the state summary at a cut with a
/// robot mid-leg, the repair-latency heatmap, and one call that renders
/// every figure as of the cut.
#[test]
fn cut_and_latency_renderings_match_goldens() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = traced(
        "replay_cut_dynamic.jsonl",
        &[
            "--alg", "dynamic", "--k", "1", "--scale", "64", "--seed", "7",
        ],
    );
    let at = run_cli(&args(&["replay", &trace, "--at", "400"])).expect("replay --at");
    assert!(at.contains("1 en-route"), "the cut catches a leg: {at}");
    assert_golden("replay_at_dynamic.txt", &at);

    let latency = dir.join("replay_latency_dynamic.svg");
    let latency_s = latency.to_str().unwrap();
    run_cli(&args(&[
        "replay",
        &trace,
        "--heatmap",
        latency_s,
        "--metric",
        "latency",
    ]))
    .expect("latency heatmap renders");
    let svg = std::fs::read_to_string(&latency).expect("heatmap written");
    assert!(svg.contains("repair latency"), "latency title");
    assert_golden("replay_heatmap_latency_dynamic.svg", &svg);

    let outs: Vec<std::path::PathBuf> = ["anim", "heatmap", "waterfall"]
        .iter()
        .map(|kind| dir.join(format!("replay_at_{kind}_dynamic.svg")))
        .collect();
    let combined = run_cli(&args(&[
        "replay",
        &trace,
        "--at",
        "400",
        "--svg",
        outs[0].to_str().unwrap(),
        "--heatmap",
        outs[1].to_str().unwrap(),
        "--waterfall",
        outs[2].to_str().unwrap(),
    ]))
    .expect("combined replay renders");
    assert!(
        combined.starts_with(&at),
        "figures do not change the summary: {combined}"
    );
    for (kind, out) in ["anim", "heatmap", "waterfall"].iter().zip(&outs) {
        let svg = std::fs::read_to_string(out).expect("figure written");
        assert_golden(&format!("replay_at_{kind}_dynamic.svg"), &svg);
    }
}

/// A region-weighted run replays on its own deployment: the failure
/// heatmap of `scenarios/dense_core.rjson` bins each failure at the
/// weighted position its sensor was deployed at.
#[test]
fn dense_core_heatmap_matches_golden() {
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/dense_core.rjson"
    );
    let trace = traced("replay_dense_core.jsonl", &["--scenario", scenario]);
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay_dense_core.svg");
    run_cli(&args(&[
        "replay",
        &trace,
        "--heatmap",
        out.to_str().unwrap(),
    ]))
    .expect("dense_core heatmap renders");
    let svg = std::fs::read_to_string(&out).expect("heatmap written");
    assert_golden("replay_heatmap_dense_core.svg", &svg);
}
