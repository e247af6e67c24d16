//! Fixture-driven coverage of every rule class, at two levels:
//!
//! * in-process: each `fixtures/<rule>/fail.rs` produces violations of
//!   exactly that rule when lexed under an in-scope path, and each
//!   `pass.rs` produces none;
//! * binary: the `ddemos-lint` executable exits non-zero (with file:line
//!   diagnostics) on a scratch workspace seeded with each fail fixture,
//!   and exits zero on the real, migrated workspace.

use ddemos_lint::lexer::SourceFile;
use ddemos_lint::{check_file, rules};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lexes a fixture as if it lived at `as_path` and runs the scoped rules.
fn check_as(rel: &str, as_path: &str) -> Vec<rules::Violation> {
    let sf = SourceFile::parse(as_path, &fixture(rel));
    check_file(&sf)
}

fn rules_hit(violations: &[rules::Violation]) -> Vec<&'static str> {
    let mut hit: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    hit.sort_unstable();
    hit.dedup();
    hit
}

#[test]
fn hash_iter_fixtures() {
    let fail = check_as("hash_iter/fail.rs", "crates/vc/src/fixture.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_HASH_ITER]);
    assert!(fail.len() >= 2, "both iteration sites should be flagged");
    let pass = check_as("hash_iter/pass.rs", "crates/vc/src/fixture.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
}

#[test]
fn clock_fixtures() {
    let fail = check_as("clock/fail.rs", "crates/vc/src/fixture.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_WALL_CLOCK]);
    assert!(
        fail.len() >= 3,
        "Instant, SystemTime, and sleep should all flag"
    );
    let pass = check_as("clock/pass.rs", "crates/vc/src/fixture.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // The same wall-clock reads are legal inside the clock's home file
    // and the transport crate.
    assert!(check_as("clock/fail.rs", "crates/protocol/src/clock.rs")
        .iter()
        .all(|v| v.rule != rules::RULE_WALL_CLOCK));
    assert!(check_as("clock/fail.rs", "crates/net/src/fixture.rs").is_empty());
}

#[test]
fn metrics_clock_fixtures() {
    // The net crate is wall-clock exempt (real sockets), which is
    // exactly why the narrower metrics rule must still apply there.
    let fail = check_as("metrics_clock/fail.rs", "crates/net/src/fixture.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_METRICS_CLOCK]);
    assert!(
        fail.len() >= 2,
        "observe and observe_since should both flag"
    );
    let pass = check_as("metrics_clock/pass.rs", "crates/net/src/fixture.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // The metrics crate implements the wall source: exempt.
    assert!(check_as("metrics_clock/fail.rs", "crates/obs/src/fixture.rs").is_empty());
}

#[test]
fn panic_fixtures() {
    let fail = check_as("panic/fail.rs", "crates/bb/src/fixture.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_PANIC]);
    assert!(
        fail.len() >= 4,
        "indexing, unwrap, expect, panic! should all flag"
    );
    let pass = check_as("panic/pass.rs", "crates/bb/src/fixture.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // The same constructs are out of scope for a non-message-path crate.
    assert!(check_as("panic/fail.rs", "crates/ea/src/fixture.rs").is_empty());
}

#[test]
fn commit_order_fixtures() {
    let fail = check_as("commit_order/fail.rs", "crates/vc/src/core.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_COMMIT_ORDER]);
    assert_eq!(
        fail.len(),
        2,
        "one violation per un-committed journal: {fail:?}"
    );
    let pass = check_as("commit_order/pass.rs", "crates/bb/src/core.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
}

#[test]
fn blocking_recv_fixtures() {
    let fail = check_as("blocking_recv/fail.rs", "crates/net/src/evloop.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_BLOCKING_RECV]);
    assert_eq!(fail.len(), 2, "recv and recv_timeout should both flag");
    let pass = check_as("blocking_recv/pass.rs", "crates/net/src/evloop.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // The blocking transport is allowed to block: the rule is scoped to
    // the event-loop module, not the whole net crate.
    assert!(check_as("blocking_recv/fail.rs", "crates/net/src/dialer.rs").is_empty());
}

#[test]
fn scalar_verify_fixtures() {
    let fail = check_as("scalar_verify/fail.rs", "crates/vc/src/fixture.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_SCALAR_VERIFY]);
    assert_eq!(
        fail.len(),
        2,
        "method-call and path-call verify should both flag: {fail:?}"
    );
    let pass = check_as("scalar_verify/pass.rs", "crates/bb/src/fixture.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // Setup, audit, and transport crates stay free to verify one by one.
    assert!(check_as("scalar_verify/fail.rs", "crates/ea/src/fixture.rs").is_empty());
    assert!(check_as("scalar_verify/fail.rs", "crates/crypto/src/fixture.rs").is_empty());
}

#[test]
fn honest_core_fixtures() {
    let fail = check_as("honest_core/fail.rs", "crates/vc/src/core.rs");
    assert_eq!(rules_hit(&fail), vec![rules::RULE_HONEST_CORE]);
    assert_eq!(
        fail.len(),
        8,
        "the import, the field types, the variant and the module: {fail:?}"
    );
    let pass = check_as("honest_core/pass.rs", "crates/vc/src/core.rs");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
    // The layer that wraps the core is where adversaries live.
    assert!(check_as("honest_core/fail.rs", "crates/vc/src/behavior.rs")
        .iter()
        .all(|v| v.rule != rules::RULE_HONEST_CORE));
}

#[test]
fn codec_fixtures() {
    let fns = ["put_msg", "get_msg", "sample_msg"];
    let messages = SourceFile::parse(
        "crates/protocol/src/messages.rs",
        &fixture("codec/fail_messages.rs"),
    );
    let codec = SourceFile::parse(
        "crates/protocol/src/codec.rs",
        &fixture("codec/fail_codec.rs"),
    );
    let fail = rules::check_codec(&messages, &codec, "Msg", &fns, "MSG_VARIANTS");
    // `Gone` missing from all three fns + the stale count constant.
    assert_eq!(fail.len(), 4, "unexpected: {fail:?}");
    assert!(fail.iter().all(|v| v.rule == rules::RULE_CODEC));

    let messages = SourceFile::parse(
        "crates/protocol/src/messages.rs",
        &fixture("codec/pass_messages.rs"),
    );
    let codec = SourceFile::parse(
        "crates/protocol/src/codec.rs",
        &fixture("codec/pass_codec.rs"),
    );
    let pass = rules::check_codec(&messages, &codec, "Msg", &fns, "MSG_VARIANTS");
    assert!(pass.is_empty(), "unexpected: {pass:?}");
}

// ---------------------------------------------------------------------------
// Binary-level: exit codes and diagnostics
// ---------------------------------------------------------------------------

/// Builds a throwaway workspace containing the clean codec pair plus one
/// seeded file, returns its root.
fn scratch_workspace(tag: &str, seed_rel_path: &str, seed_fixture: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ddemos-lint-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, fixture_rel) in [
        ("crates/protocol/src/messages.rs", "codec/pass_messages.rs"),
        ("crates/protocol/src/codec.rs", "codec/pass_codec.rs"),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fixture(fixture_rel)).unwrap();
    }
    let seed = root.join(seed_rel_path);
    std::fs::create_dir_all(seed.parent().unwrap()).unwrap();
    std::fs::write(&seed, fixture(seed_fixture)).unwrap();
    root
}

fn run_lint(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ddemos-lint"))
        .arg(root)
        .output()
        .expect("run ddemos-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_fails_on_each_seeded_violation() {
    let cases = [
        ("hash-iter", "crates/vc/src/seeded.rs", "hash_iter/fail.rs"),
        ("wall-clock", "crates/vc/src/seeded.rs", "clock/fail.rs"),
        ("panic", "crates/bb/src/seeded.rs", "panic/fail.rs"),
        (
            "metrics-clock",
            "crates/net/src/seeded.rs",
            "metrics_clock/fail.rs",
        ),
        (
            "commit-order",
            "crates/vc/src/core.rs",
            "commit_order/fail.rs",
        ),
        (
            "blocking-recv",
            "crates/net/src/evloop.rs",
            "blocking_recv/fail.rs",
        ),
        (
            "scalar-verify",
            "crates/bb/src/seeded.rs",
            "scalar_verify/fail.rs",
        ),
        (
            "honest-core",
            "crates/vc/src/core.rs",
            "honest_core/fail.rs",
        ),
    ];
    for (rule, rel, fix) in cases {
        let root = scratch_workspace(rule, rel, fix);
        let (ok, stdout) = run_lint(&root);
        assert!(!ok, "{rule}: seeded workspace must fail");
        assert!(
            stdout.contains(&format!("[{rule}]")) && stdout.contains(&format!("{rel}:")),
            "{rule}: diagnostics must carry file:line and the rule tag:\n{stdout}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    // Codec: seed by replacing the messages file with the uncovered enum.
    let root = scratch_workspace(
        "codec",
        "crates/protocol/src/messages.rs",
        "codec/fail_messages.rs",
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "codec: seeded workspace must fail");
    assert!(
        stdout.contains("[codec-exhaustive]"),
        "missing tag:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_passes_on_the_real_workspace() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root");
    let (ok, stdout) = run_lint(repo_root);
    assert!(ok, "the migrated workspace must be lint-clean:\n{stdout}");
}
