//! Guards the workspace's zero-dependency policy: every crate must be
//! buildable offline from this repository alone. The test walks every
//! `Cargo.toml` in the workspace and rejects any dependency that is
//! not a path/workspace-internal `robonet-*` crate — reintroducing a
//! registry dependency (rand, proptest, criterion, ...) fails here
//! before it fails in a sealed build environment.

use std::fs;
use std::path::{Path, PathBuf};

/// All Cargo.toml files that belong to the workspace: the root
/// manifest plus one per `crates/*` member.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).expect("crates/ directory exists");
    for entry in entries {
        let dir = entry.expect("readable dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() >= 9,
        "expected the root manifest plus 8 member crates, found {}",
        manifests.len()
    );
    manifests
}

/// True for section headers that declare dependencies, including
/// target-specific tables like
/// `[target.'cfg(unix)'.dependencies]`.
fn is_dependency_section(header: &str) -> bool {
    header.ends_with("dependencies")
}

/// Parses the dependency names out of one manifest, without a TOML
/// crate (which would itself be a registry dependency). Returns
/// `(section, name, value)` triples for every dependency entry.
fn dependencies(manifest: &Path) -> Vec<(String, String, String)> {
    let text =
        fs::read_to_string(manifest).unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].to_string();
            continue;
        }
        if !is_dependency_section(&section) {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        // Dotted keys (`foo.workspace = true`) carry the resolution in
        // the key itself; fold it into the value.
        let name = name.trim().trim_matches('"');
        let (name, value) = match name.split_once('.') {
            Some((base, rest)) => (base, format!("{rest} = {}", value.trim())),
            None => (name, value.trim().to_string()),
        };
        deps.push((section.clone(), name.to_string(), value));
    }
    deps
}

/// Every dependency in every workspace manifest is an internal
/// `robonet-*` crate wired up by `path = ...` or
/// `.workspace = true` — nothing resolves against a registry.
#[test]
fn all_dependencies_are_workspace_internal() {
    for manifest in workspace_manifests() {
        for (section, name, value) in dependencies(&manifest) {
            assert!(
                name.starts_with("robonet-"),
                "{}: [{}] depends on external crate `{}` — the workspace \
                 must stay registry-free (see DESIGN.md substitutions)",
                manifest.display(),
                section,
                name,
            );
            assert!(
                value.contains("path") || value.contains("workspace"),
                "{}: [{}] dependency `{}` is not path/workspace-resolved: {}",
                manifest.display(),
                section,
                name,
                value,
            );
        }
    }
}

/// The retired registry crates must not creep back in under any
/// section of any manifest. Parallelism crates are banned by name too:
/// the sweep engine's determinism contract rests on the in-tree
/// work-stealing pool (`crates/des/src/pool.rs`), and pulling in rayon,
/// crossbeam or any channel/threadpool crate would both break
/// hermeticity and make the scheduling opaque.
#[test]
fn retired_registry_crates_stay_gone() {
    for manifest in workspace_manifests() {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        for banned in [
            "rand",
            "proptest",
            "criterion",
            "rand_xoshiro",
            "rayon",
            "rayon-core",
            "crossbeam",
            "crossbeam-channel",
            "crossbeam-deque",
            "crossbeam-utils",
            "crossbeam-queue",
            "crossbeam-epoch",
            "flume",
            "threadpool",
            "scoped_threadpool",
            "num_cpus",
        ] {
            for (section, name, _) in dependencies(&manifest) {
                assert_ne!(
                    name,
                    banned,
                    "{}: [{}] reintroduces `{}`",
                    manifest.display(),
                    section,
                    banned,
                );
            }
            // Catch `[dependencies.rand]`-style tables the line parser
            // reports as sections rather than entries.
            assert!(
                !text.contains(&format!("dependencies.{banned}]")),
                "{}: table section for `{}`",
                manifest.display(),
                banned,
            );
        }
    }
}

/// The workspace has one benchmark, `perfbench/` (see BENCHMARK.json);
/// the paper's experiments are plain binaries of `robonet-bench`. No
/// manifest may declare a `[[bench]]` target or a bench profile, and the
/// retired self-timed harness may not return, so a second timing system
/// cannot creep back in beside the benchmark.
#[test]
fn no_second_timing_harness() {
    for manifest in workspace_manifests() {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        for banned in ["[[bench]]", "[profile.bench]"] {
            assert!(
                !text.contains(banned),
                "{}: declares `{banned}` — time code in perfbench/ instead",
                manifest.display(),
            );
        }
    }
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    for retired in ["src/selftime.rs", "benches"] {
        assert!(
            !bench.join(retired).exists(),
            "crates/bench/{retired} is back — time code in perfbench/ instead"
        );
    }
}

/// The parallel sweep machinery is in-tree: the work-stealing pool
/// lives in the `des` kernel crate and uses only `std` primitives
/// (scoped threads, mutex-guarded deques) — no external scheduler to
/// re-audit, no unsafe (the crate forbids it).
#[test]
fn work_stealing_pool_is_in_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pool = root.join("crates/des/src/pool.rs");
    assert!(pool.is_file(), "crates/des/src/pool.rs must exist");
    let text = fs::read_to_string(&pool).expect("readable pool source");
    for needed in ["scatter_map", "std::thread::scope", "catch_unwind"] {
        assert!(
            text.contains(needed),
            "pool.rs no longer mentions `{needed}` — if the pool was \
             replaced, update this guard alongside it"
        );
    }
}
