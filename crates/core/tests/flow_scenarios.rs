//! Golden gate for the flow engine on the scenario library: every
//! `scenarios/*.rjson` the flow engine can execute runs through
//! `fastsim::run`, and the summaries must be byte-identical to the
//! committed `tests/golden/flow_scenarios.txt` (regenerate intentional
//! changes with `ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-core
//! --test flow_scenarios`).
//!
//! The flow engine rejects partition and attrition timeline events, so
//! scenarios holding them are skipped — and the skipped set is pinned,
//! so a new library file cannot drop out of the gate unseen.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use robonet_core::fault::TimedFault;
use robonet_core::{compile_scenario, fastsim, Overrides};

#[test]
fn flow_engine_library_summaries_match_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rjson"))
        .collect();
    paths.sort();

    let mut summaries = String::new();
    let mut skipped = Vec::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("readable scenario");
        let cfg = compile_scenario(&source, &Overrides::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .cfg;
        let packet_only = cfg.faults.iter().flat_map(|p| &p.timeline).any(|e| {
            matches!(
                e,
                TimedFault::Partition { .. } | TimedFault::Attrition { .. }
            )
        });
        if packet_only {
            skipped.push(name);
            continue;
        }
        writeln!(summaries, "{name}: {:?}", fastsim::run(&cfg)).unwrap();
    }
    assert_eq!(
        skipped,
        ["attrition_wave", "partition_heal"],
        "only the scenarios with partition or attrition events may skip the flow gate"
    );

    let golden_path = root.join("tests/golden/flow_scenarios.txt");
    if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &summaries).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_path:?}: {e}"));
    assert_eq!(
        summaries, golden,
        "flow summaries drifted from {golden_path:?} (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
    );
}
