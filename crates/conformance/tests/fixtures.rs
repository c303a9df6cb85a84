//! Fixture acceptance: every seeded-violation file under `fixtures/bad/`
//! produces exactly the finding it seeds, every `fixtures/good/` counterpart
//! is clean, and the real workspace checks out clean end to end.

use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    conformance::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the conformance crate lives inside the workspace")
}

fn check_fixture(kind: &str, name: &str) -> Vec<conformance::model::Diagnostic> {
    let path = fixtures_dir().join(kind).join(format!("{name}.rs"));
    conformance::check_file(&workspace_root(), &path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Each `(fixture, lint)` pair: the bad file fires that lint, and nothing else.
const SEEDS: [(&str, &str); 9] = [
    ("safety_comment", "safety-comment"),
    ("hash_iteration", "hash-iteration"),
    ("time_source", "time-source"),
    ("ledger_charge", "ledger-charge"),
    ("scope_restore", "scope-restore"),
    ("service_panic", "service-panic"),
    ("raw_spawn", "raw-spawn"),
    ("oracle_call", "oracle-call"),
    ("oracle_call_subgrid", "oracle-call"),
];

#[test]
fn every_seeded_violation_is_found() {
    for (fixture, lint) in SEEDS {
        let diags = check_fixture("bad", fixture);
        assert!(
            !diags.is_empty(),
            "bad/{fixture}.rs: expected a {lint} finding, got none"
        );
        assert!(
            diags.iter().all(|d| d.lint == lint),
            "bad/{fixture}.rs: expected only {lint}, got {diags:?}"
        );
    }
}

#[test]
fn every_good_counterpart_is_clean() {
    for (fixture, _) in SEEDS {
        let diags = check_fixture("good", fixture);
        assert!(diags.is_empty(), "good/{fixture}.rs: {diags:?}");
    }
}

#[test]
fn reasonless_allow_is_itself_a_finding() {
    let diags = check_fixture("bad", "allow_syntax");
    assert!(
        diags.iter().any(|d| d.lint == "allow-syntax"),
        "expected an allow-syntax finding for the reason-less allow: {diags:?}"
    );
    // And crucially, the reason-less allow does NOT suppress the violation.
    assert!(
        diags.iter().any(|d| d.lint == "raw-spawn"),
        "a malformed allow must not suppress the underlying finding: {diags:?}"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let diags = conformance::check_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "the workspace must stay conformance-clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
