//! `ddemos-lint` — the workspace invariant checker.
//!
//! The determinism proofs this repo leans on (byte-identical fingerprint
//! sweeps, replay-identical recovery, the cross-driver step-trace
//! equivalence) silently assume three things no test asserts directly:
//! protocol state is never iterated in hash order, wall-clock time never
//! reaches a core except through the `now_ms` step input, and no panic
//! ever unwinds a replica on a message path. This crate makes those
//! conventions (plus codec exhaustiveness and the durable-before-visible
//! output order) mechanically checked artifacts: a std-only binary that
//! lexes every workspace source file (no `syn` — the build environment
//! has no registry access) and fails CI with `file:line` diagnostics on
//! any violation.
//!
//! Rule classes and their scopes (see [`rules`] for the checks and
//! DESIGN.md §8 for the rationale):
//!
//! | rule              | scope                                          |
//! |-------------------|------------------------------------------------|
//! | `hash-iter`       | protocol-state crates (vc, bb, consensus, protocol, storage, ea, trustee) |
//! | `wall-clock`      | everything except `protocol/src/clock.rs` and the transport/bench/metrics crates |
//! | `metrics-clock`   | everything except `crates/obs` (no `Instant`/`elapsed` readings fed into recorder metrics) |
//! | `panic`           | core/message-path crates (vc, bb, consensus, protocol, storage) |
//! | `codec-exhaustive`| `Msg` enum vs `put_msg`/`get_msg`/`sample_msg` |
//! | `commit-order`    | `vc/src/core.rs`, `bb/src/core.rs`             |
//! | `blocking-recv`   | `net/src/evloop.rs` (the readiness loop must never block on a channel) |
//! | `scalar-verify`   | `crates/vc`, `crates/bb` (message paths verify through the batch/cache layer, never one signature at a time) |
//! | `honest-core`     | `vc/src/core.rs` (no adversary type: Byzantine collectors wrap the honest core at its step boundary) |
//!
//! Suppression is always *recorded*: inline
//! `// lint:allow(rule, reason)` for sites justified where they stand,
//! or an entry in `crates/lint/allow.list` for exceptions reviewed in
//! one place. Stale allowlist entries are themselves errors, so the
//! exception file can only shrink as code is cleaned up.

pub mod lexer;
pub mod rules;

use lexer::SourceFile;
use rules::Violation;
use std::path::{Path, PathBuf};

/// Crates whose state feeds protocol decisions: hash-ordered iteration
/// here is a determinism bug waiting for the seed that samples it.
const STATE_CRATES: &[&str] = &[
    "crates/vc",
    "crates/bb",
    "crates/consensus",
    "crates/protocol",
    "crates/storage",
    "crates/ea",
    "crates/trustee",
];

/// Crates on the replica/message path: a panic here aborts a node a
/// malformed peer message should only be able to make shrug.
const PANIC_CRATES: &[&str] = &[
    "crates/vc",
    "crates/bb",
    "crates/consensus",
    "crates/protocol",
    "crates/storage",
];

/// The one file allowed to read real time: everything else goes through
/// `GlobalClock` / the `now_ms` step input.
const CLOCK_HOME: &str = "crates/protocol/src/clock.rs";

/// Crates exempt from the wall-clock rule wholesale: transports talk to
/// real sockets (`crates/net`), benches measure real time
/// (`crates/bench`), and the metrics crate implements the wall-clock
/// profiling time source (`WallSource`) everything else must go through.
const CLOCK_EXEMPT_CRATES: &[&str] = &["crates/net", "crates/bench", "crates/obs"];

/// The metrics crate is exempt from the metrics-clock rule: it defines
/// the recorder and its wall time source, so it is the one place a raw
/// `Instant` may legitimately meet an `observe` call.
const METRICS_HOME_CRATE: &[&str] = &["crates/obs"];

/// Files exempt from the wall-clock rule: the load harness measures
/// real round-trip latency over real sockets — wall-clock reads are its
/// deliverable, and nothing in it feeds a core's `now_ms`.
const CLOCK_EXEMPT_FILES: &[&str] = &["src/load.rs"];

/// Files checked by the codec-exhaustiveness rule.
const MSG_ENUM_FILE: &str = "crates/protocol/src/messages.rs";
const MSG_CODEC_FILE: &str = "crates/protocol/src/codec.rs";

/// Files checked by the durable-before-visible rule.
const CORE_FILES: &[&str] = &["crates/vc/src/core.rs", "crates/bb/src/core.rs"];

/// The readiness-driven event loop: one blocking channel receive here
/// stalls every connection the loop owns, so `.recv`/`.recv_timeout`
/// are denied (waits go through the poller).
const EVLOOP_FILE: &str = "crates/net/src/evloop.rs";
const EVLOOP_DIR: &str = "crates/net/src/evloop/";

/// Replica message-path crates where one-at-a-time `verify` calls are
/// denied: every signature check must route through the batch/cache
/// layer (`ddemos_crypto::mverify`), or the hot path silently falls back
/// to one group ladder per signature.
const VERIFY_SCOPE_CRATES: &[&str] = &["crates/vc", "crates/bb"];

/// The honest VC state machine, which names no adversary type.
const HONEST_CORE_FILE: &str = "crates/vc/src/core.rs";

/// One allowlist entry: `rule | path | line-substring | reason`.
/// Matching is by rule, exact workspace-relative path, and a substring of
/// the flagged line's text — robust to line-number drift, broken by any
/// edit that changes what the line does.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub needle: String,
    pub reason: String,
    /// The allowlist's own line (for stale-entry diagnostics).
    pub line: u32,
}

/// Parses `allow.list` text. Lines are `rule | path | substring | reason`;
/// `#` starts a comment; blank lines are skipped.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, '|').map(str::trim);
        let (Some(rule), Some(path), Some(needle), Some(reason)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            // A malformed entry suppresses nothing; surface it as stale.
            out.push(AllowEntry {
                rule: String::new(),
                path: line.to_string(),
                needle: String::new(),
                reason: String::new(),
                line: idx as u32 + 1,
            });
            continue;
        };
        out.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            needle: needle.to_string(),
            reason: reason.to_string(),
            line: idx as u32 + 1,
        });
    }
    out
}

/// The result of a full workspace run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn has_prefix(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(&format!("{p}/")))
}

/// Collects the workspace-relative paths of every `.rs` file the lint
/// scans: `crates/*/src/**` plus the root crate's `src/**`. Fixtures,
/// shims, tests, examples, benches, and build output are out of scope —
/// the invariants govern shipped library code (in-file `#[cfg(test)]`
/// items are excluded by the lexer's test mask instead).
pub fn scan_paths(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            // The lint's own sources would trip every rule (they *name*
            // the forbidden constructs); fixtures are violations by design.
            if dir.file_name().is_some_and(|n| n == "lint") {
                continue;
            }
            collect_rs(&dir.join("src"), root, &mut out);
        }
    }
    collect_rs(&root.join("src"), root, &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Runs every rule over one lexed file, applying the scope table.
pub fn check_file(sf: &SourceFile) -> Vec<Violation> {
    let path = sf.path.as_str();
    let mut out = Vec::new();
    if has_prefix(path, STATE_CRATES) {
        out.extend(rules::check_hash_iter(sf));
    }
    if path != CLOCK_HOME
        && !has_prefix(path, CLOCK_EXEMPT_CRATES)
        && !CLOCK_EXEMPT_FILES.contains(&path)
    {
        out.extend(rules::check_wall_clock(sf));
    }
    if !has_prefix(path, METRICS_HOME_CRATE) {
        out.extend(rules::check_metrics_clock(sf));
    }
    if has_prefix(path, PANIC_CRATES) {
        out.extend(rules::check_panic(sf));
    }
    if CORE_FILES.contains(&path) {
        out.extend(rules::check_commit_order(sf));
    }
    if path == EVLOOP_FILE || path.starts_with(EVLOOP_DIR) {
        out.extend(rules::check_blocking_recv(sf));
    }
    if has_prefix(path, VERIFY_SCOPE_CRATES) {
        out.extend(rules::check_scalar_verify(sf));
    }
    if path == HONEST_CORE_FILE {
        out.extend(rules::check_honest_core(sf));
    }
    out
}

/// Runs the full lint over the workspace at `root`.
///
/// # Errors
/// I/O errors reading source files (an unreadable workspace is a failed
/// run, not a clean one).
pub fn run(root: &Path) -> std::io::Result<Report> {
    let allow_path = root.join("crates/lint/allow.list");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };

    let mut report = Report::default();
    let mut messages_sf = None;
    let mut codec_sf = None;
    for rel in scan_paths(root) {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let sf = SourceFile::parse(&rel, &src);
        report.files_scanned += 1;
        report.violations.extend(check_file(&sf));
        if rel == MSG_ENUM_FILE {
            messages_sf = Some(sf);
        } else if rel == MSG_CODEC_FILE {
            codec_sf = Some(sf);
        }
    }
    match (&messages_sf, &codec_sf) {
        (Some(messages), Some(codec)) => {
            report.violations.extend(rules::check_codec(
                messages,
                codec,
                "Msg",
                &["put_msg", "get_msg", "sample_msg"],
                "MSG_VARIANTS",
            ));
        }
        _ => report.violations.push(Violation {
            path: MSG_ENUM_FILE.to_string(),
            line: 1,
            rule: rules::RULE_CODEC,
            msg: "message enum / codec files missing; cannot check exhaustiveness".to_string(),
            line_text: String::new(),
        }),
    }

    // Apply the allowlist; any entry that suppressed nothing is stale.
    let mut used = vec![false; allowlist.len()];
    report.violations.retain(|v| {
        let mut suppressed = false;
        for (i, entry) in allowlist.iter().enumerate() {
            if entry.rule == v.rule
                && entry.path == v.path
                && (!entry.needle.is_empty() && v.line_text.contains(&entry.needle))
            {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (entry, used) in allowlist.iter().zip(&used) {
        if !used {
            report.violations.push(Violation {
                path: "crates/lint/allow.list".to_string(),
                line: entry.line,
                rule: "stale-allow",
                msg: format!(
                    "allowlist entry `{} | {} | {}` suppressed nothing — the code moved on; \
                     delete the entry",
                    entry.rule, entry.path, entry.needle
                ),
                line_text: String::new(),
            });
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_flags_malformed() {
        let text =
            "# comment\n\npanic | crates/vc/src/core.rs | foo[0] | bounded above\nbroken line\n";
        let entries = parse_allowlist(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "panic");
        assert_eq!(entries[0].needle, "foo[0]");
        assert_eq!(entries[1].rule, ""); // malformed → stale marker
    }

    #[test]
    fn scope_table_routes_rules() {
        let hash_src = "fn f(m: &HashMap<u32, u32>) { for x in m { let _ = x; } }";
        let in_scope = SourceFile::parse("crates/vc/src/core.rs", hash_src);
        assert!(check_file(&in_scope)
            .iter()
            .any(|v| v.rule == rules::RULE_HASH_ITER));
        // The harness driver is not a protocol-state crate.
        let out_of_scope = SourceFile::parse("src/election.rs", hash_src);
        assert!(!check_file(&out_of_scope)
            .iter()
            .any(|v| v.rule == rules::RULE_HASH_ITER));

        let clock_src = "fn f() { let t = Instant::now(); }";
        assert!(!check_file(&SourceFile::parse(CLOCK_HOME, clock_src))
            .iter()
            .any(|v| v.rule == rules::RULE_WALL_CLOCK));
        assert!(
            !check_file(&SourceFile::parse("crates/net/src/dialer.rs", clock_src))
                .iter()
                .any(|v| v.rule == rules::RULE_WALL_CLOCK)
        );
        // The load harness measures real latency: clock-exempt by file.
        assert!(!check_file(&SourceFile::parse("src/load.rs", clock_src))
            .iter()
            .any(|v| v.rule == rules::RULE_WALL_CLOCK));
        assert!(check_file(&SourceFile::parse("src/election.rs", clock_src))
            .iter()
            .any(|v| v.rule == rules::RULE_WALL_CLOCK));

        // Wall readings into a recorder flag everywhere but the metrics
        // crate itself (which implements the wall source).
        let obs_src = r#"fn f(r: &Recorder, t: Instant) { r.observe("x", "", t.elapsed().as_nanos() as u64); }"#;
        assert!(check_file(&SourceFile::parse("src/election.rs", obs_src))
            .iter()
            .any(|v| v.rule == rules::RULE_METRICS_CLOCK));
        assert!(
            !check_file(&SourceFile::parse("crates/obs/src/recorder.rs", obs_src))
                .iter()
                .any(|v| v.rule == rules::RULE_METRICS_CLOCK)
        );

        let panic_src = "fn f(x: Option<u32>) { x.unwrap(); }";
        assert!(
            check_file(&SourceFile::parse("crates/bb/src/node.rs", panic_src))
                .iter()
                .any(|v| v.rule == rules::RULE_PANIC)
        );
        // EA setup is not a message path.
        assert!(
            !check_file(&SourceFile::parse("crates/ea/src/setup.rs", panic_src))
                .iter()
                .any(|v| v.rule == rules::RULE_PANIC)
        );

        // Scalar verification flags on replica message paths only; the
        // crypto crate itself (and setup/audit crates) stay exempt.
        let verify_src = "fn f(vk: &VerifyingKey, m: &[u8], s: &Signature) { vk.verify(m, s); }";
        assert!(
            check_file(&SourceFile::parse("crates/vc/src/core.rs", verify_src))
                .iter()
                .any(|v| v.rule == rules::RULE_SCALAR_VERIFY)
        );
        assert!(!check_file(&SourceFile::parse(
            "crates/crypto/src/schnorr.rs",
            verify_src
        ))
        .iter()
        .any(|v| v.rule == rules::RULE_SCALAR_VERIFY));
    }
}
