//! The rule classes.
//!
//! Each rule is a pure function over one or two lexed [`SourceFile`]s and
//! returns violations; scoping (which crates a rule applies to) lives in
//! the workspace walker, not here, so fixture tests can drive each rule
//! directly.

use crate::lexer::{skip_balanced, SourceFile, Tok};

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Violation {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
    /// Raw text of the flagged line, used for allowlist matching.
    pub line_text: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

pub const RULE_HASH_ITER: &str = "hash-iter";
pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_METRICS_CLOCK: &str = "metrics-clock";
pub const RULE_PANIC: &str = "panic";
pub const RULE_CODEC: &str = "codec-exhaustive";
pub const RULE_COMMIT_ORDER: &str = "commit-order";
pub const RULE_BLOCKING_RECV: &str = "blocking-recv";
pub const RULE_SCALAR_VERIFY: &str = "scalar-verify";
pub const RULE_HONEST_CORE: &str = "honest-core";

fn violation(sf: &SourceFile, line: u32, rule: &'static str, msg: String) -> Violation {
    Violation {
        path: sf.path.clone(),
        line,
        rule,
        msg,
        line_text: sf.line_text(line).to_string(),
    }
}

// ---------------------------------------------------------------------
// Rule 1: determinism — no HashMap/HashSet iteration in state crates.
// ---------------------------------------------------------------------

/// Methods whose results observe hash iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Collects identifiers bound to a `HashMap`/`HashSet` type in this file:
/// `name: HashMap<…>` (fields, params, annotated lets — including through
/// wrappers like `Arc<HashMap<…>>`) and `let [mut] name = HashMap::…`.
fn hash_names(sf: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    let toks = &sf.toks;
    for i in 0..toks.len() {
        let Some(name) = sf.ident(i) else { continue };
        // `name : … HashMap` within a short lookahead window that stops at
        // tokens which end a type ascription.
        if sf.punct(i + 1, ':') && !sf.punct(i + 2, ':') {
            let mut j = i + 2;
            let limit = (i + 12).min(toks.len());
            while j < limit {
                match &toks[j].kind {
                    Tok::Ident(s) if s == "HashMap" || s == "HashSet" => {
                        names.push(name.to_string());
                        break;
                    }
                    Tok::Punct(',' | ';' | '=' | '{' | '}' | ')') => break,
                    _ => j += 1,
                }
            }
        }
        // `let [mut] name = HashMap::…`
        if name == "let" {
            let mut j = i + 1;
            if sf.ident(j) == Some("mut") {
                j += 1;
            }
            if let Some(bound) = sf.ident(j) {
                if sf.punct(j + 1, '=')
                    && matches!(sf.ident(j + 2), Some("HashMap") | Some("HashSet"))
                {
                    names.push(bound.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

pub fn check_hash_iter(sf: &SourceFile) -> Vec<Violation> {
    let names = hash_names(sf);
    let mut out = Vec::new();
    let toks = &sf.toks;
    let is_hash = |i: usize| sf.ident(i).is_some_and(|s| names.iter().any(|n| n == s));
    for (i, tok) in toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let line = tok.line;
        // `name.iter()` / `self.name.keys()` …
        if let Some(m) = sf.ident(i) {
            if ITER_METHODS.contains(&m)
                && sf.punct(i + 1, '(')
                && i >= 2
                && sf.punct(i - 1, '.')
                && is_hash(i - 2)
            {
                if !sf.allowed(RULE_HASH_ITER, line) {
                    out.push(violation(
                        sf,
                        line,
                        RULE_HASH_ITER,
                        format!(
                            "`{}.{}()` iterates a HashMap/HashSet in a protocol-state crate; \
                             order is nondeterministic — use BTreeMap/BTreeSet or justify with \
                             `// lint:allow(hash-iter, reason)`",
                            sf.ident(i - 2).unwrap_or("?"),
                            m
                        ),
                    ));
                }
                continue;
            }
        }
        // `for pat in [&mut] name {` — scan from `for` to `in`, then look
        // at the iterated expression up to the body `{`.
        if sf.ident(i) == Some("for") {
            let mut j = i + 1;
            // Skip the pattern: advance to the matching `in`, stepping over
            // balanced parens/brackets used in tuple/slice patterns.
            while j < toks.len() {
                match &toks[j].kind {
                    Tok::Ident(s) if s == "in" => break,
                    Tok::Punct('(') => match skip_balanced(toks, j, '(', ')') {
                        Some(e) => j = e + 1,
                        None => break,
                    },
                    Tok::Punct('{') => break, // not a for-in after all
                    _ => j += 1,
                }
            }
            if sf.ident(j) != Some("in") {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && !sf.punct(k, '{') {
                if is_hash(k) && !(k >= 1 && sf.punct(k - 1, '.')) {
                    let line = toks[k].line;
                    if !sf.allowed(RULE_HASH_ITER, line) {
                        out.push(violation(
                            sf,
                            line,
                            RULE_HASH_ITER,
                            format!(
                                "`for … in {}` iterates a HashMap/HashSet in a protocol-state \
                                 crate; order is nondeterministic — use BTreeMap/BTreeSet or \
                                 justify with `// lint:allow(hash-iter, reason)`",
                                sf.ident(k).unwrap_or("?")
                            ),
                        ));
                    }
                    break;
                }
                k += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 2: clock containment.
// ---------------------------------------------------------------------

pub fn check_wall_clock(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &sf.toks;
    for (i, tok) in toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let line = tok.line;
        let flagged = match sf.ident(i) {
            // `Instant::now` — `Instant` followed by `::now`.
            Some("Instant")
                if sf.punct(i + 1, ':')
                    && sf.punct(i + 2, ':')
                    && sf.ident(i + 3) == Some("now") =>
            {
                Some("Instant::now()")
            }
            // Any value-position `SystemTime::…` path.
            Some("SystemTime") if sf.punct(i + 1, ':') && sf.punct(i + 2, ':') => {
                Some("SystemTime")
            }
            // `thread::sleep` / `std::thread::sleep`.
            Some("sleep")
                if i >= 3
                    && sf.punct(i - 1, ':')
                    && sf.punct(i - 2, ':')
                    && sf.ident(i - 3) == Some("thread") =>
            {
                Some("thread::sleep")
            }
            _ => None,
        };
        if let Some(what) = flagged {
            if !sf.allowed(RULE_WALL_CLOCK, line) {
                out.push(violation(
                    sf,
                    line,
                    RULE_WALL_CLOCK,
                    format!(
                        "{what} outside protocol/src/clock.rs, the net crate, benches, or \
                         #[cfg(test)] code; cores must see time only via the `now_ms` step \
                         input — route through GlobalClock or justify with \
                         `// lint:allow(wall-clock, reason)`"
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 2b: metrics clock hygiene.
// ---------------------------------------------------------------------

/// Identifiers that mark a wall-clock reading inside a recorder call.
const METRICS_WALL_TOKENS: &[&str] = &["Instant", "SystemTime", "elapsed"];

/// Flags `.observe(…)` / `.observe_since(…)` calls whose arguments carry
/// a wall-clock reading (`Instant`, `SystemTime`, `.elapsed()`). Metric
/// durations must come from the recorder's own time source
/// ([`Recorder::now_ns`] start stamps or `scoped_ns` guards): a recorder
/// attached to the virtual clock charges modelled time, and one raw
/// `Instant` delta fed into it silently breaks the seed-deterministic
/// snapshot the fingerprint sweep asserts on.
pub fn check_metrics_clock(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.test_mask[i] {
            continue;
        }
        let Some(m) = sf.ident(i) else { continue };
        if (m != "observe" && m != "observe_since")
            || i == 0
            || !sf.punct(i - 1, '.')
            || !sf.punct(i + 1, '(')
        {
            continue;
        }
        let Some(end) = skip_balanced(toks, i + 1, '(', ')') else {
            continue;
        };
        for j in (i + 2)..end {
            let Some(id) = sf.ident(j) else { continue };
            if METRICS_WALL_TOKENS.contains(&id) {
                let line = toks[i].line;
                if !sf.allowed(RULE_METRICS_CLOCK, line) {
                    out.push(violation(
                        sf,
                        line,
                        RULE_METRICS_CLOCK,
                        format!(
                            "`.{m}(…{id}…)` feeds a wall-clock reading into a recorder; metric \
                             durations must come from the recorder's own time source \
                             (`Recorder::now_ns` / `observe_since` / `scoped_ns`) so \
                             virtual-domain snapshots replay byte-identically — or justify with \
                             `// lint:allow(metrics-clock, reason)`"
                        ),
                    ));
                }
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: panic-freedom.
// ---------------------------------------------------------------------

/// Keywords that may directly precede `[` without it being an index
/// expression (`let [a, b] = …`, `for [x] in …`, `return [..]`).
const NON_RECEIVER_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "match", "if", "else", "move", "box", "dyn", "as",
    "break", "continue", "unsafe", "loop", "while", "for", "where", "impl", "fn", "pub", "use",
    "mod", "struct", "enum", "const", "static", "type", "trait",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn check_panic(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &sf.toks;
    let mut flag = |i: usize, what: &str| {
        let line = toks[i].line;
        if !sf.allowed(RULE_PANIC, line) {
            out.push(violation(
                sf,
                line,
                RULE_PANIC,
                format!(
                    "{what} on a core/message-path crate; return an error or record the \
                     justified exception in crates/lint/allow.list"
                ),
            ));
        }
    };
    for i in 0..toks.len() {
        if sf.test_mask[i] {
            continue;
        }
        match &toks[i].kind {
            Tok::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && i >= 1
                    && sf.punct(i - 1, '.')
                    && sf.punct(i + 1, '(') =>
            {
                flag(i, &format!("`.{s}(…)`"));
            }
            Tok::Ident(s) if PANIC_MACROS.contains(&s.as_str()) && sf.punct(i + 1, '!') => {
                flag(i, &format!("`{s}!`"));
            }
            Tok::Punct('[') if i >= 1 => {
                let receiver = match &toks[i - 1].kind {
                    Tok::Ident(s) => !NON_RECEIVER_KEYWORDS.contains(&s.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                };
                if receiver {
                    flag(i, "`[…]` indexing (can panic out of bounds)");
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 4: codec exhaustiveness.
// ---------------------------------------------------------------------

/// Parses the variant names of `pub enum <name>` from `sf`.
pub fn enum_variants(sf: &SourceFile, name: &str) -> Option<(u32, Vec<String>)> {
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.ident(i) == Some("enum") && sf.ident(i + 1) == Some(name) && sf.punct(i + 2, '{') {
            let end = skip_balanced(toks, i + 2, '{', '}')?;
            let mut variants = Vec::new();
            let mut j = i + 3;
            while j < end {
                match &toks[j].kind {
                    // Skip attributes and doc comments on variants.
                    Tok::Punct('#') if sf.punct(j + 1, '[') => {
                        j = skip_balanced(toks, j + 1, '[', ']').unwrap_or(end) + 1;
                    }
                    Tok::Ident(_) => {
                        variants.push(sf.ident(j).unwrap_or("").to_string());
                        // Skip the variant's payload to the next `,` at
                        // this depth.
                        let mut k = j + 1;
                        while k < end {
                            match &toks[k].kind {
                                Tok::Punct('{') => {
                                    k = skip_balanced(toks, k, '{', '}').unwrap_or(end) + 1
                                }
                                Tok::Punct('(') => {
                                    k = skip_balanced(toks, k, '(', ')').unwrap_or(end) + 1
                                }
                                Tok::Punct(',') => break,
                                _ => k += 1,
                            }
                        }
                        j = k + 1;
                    }
                    _ => j += 1,
                }
            }
            return Some((toks[i].line, variants));
        }
    }
    None
}

/// Returns the token range (exclusive of braces) of `fn <name>`'s body.
fn fn_body(sf: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.ident(i) == Some("fn") && sf.ident(i + 1) == Some(name) {
            let mut j = i + 2;
            while j < toks.len() && !sf.punct(j, '{') {
                j += 1;
            }
            let end = skip_balanced(toks, j, '{', '}')?;
            return Some((j + 1, end));
        }
    }
    None
}

/// Whether `Enum::Variant` appears within token range `[start, end)`.
fn path_used(sf: &SourceFile, start: usize, end: usize, enum_name: &str, variant: &str) -> bool {
    for i in start..end.min(sf.toks.len()) {
        if sf.ident(i) == Some(enum_name)
            && sf.punct(i + 1, ':')
            && sf.punct(i + 2, ':')
            && sf.ident(i + 3) == Some(variant)
        {
            return true;
        }
    }
    false
}

/// Checks that every variant of `enum_name` (in `messages`) appears in
/// each of `fns` (in `codec`), and that `count_const` (if present in
/// `codec`) equals the variant count — so the variant-indexed roundtrip
/// test actually samples every variant.
pub fn check_codec(
    messages: &SourceFile,
    codec: &SourceFile,
    enum_name: &str,
    fns: &[&str],
    count_const: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some((enum_line, variants)) = enum_variants(messages, enum_name) else {
        out.push(violation(
            messages,
            1,
            RULE_CODEC,
            format!("enum `{enum_name}` not found"),
        ));
        return out;
    };
    for f in fns {
        let Some((start, end)) = fn_body(codec, f) else {
            out.push(violation(
                codec,
                1,
                RULE_CODEC,
                format!("fn `{f}` not found (needed for `{enum_name}` coverage)"),
            ));
            continue;
        };
        for v in &variants {
            if !path_used(codec, start, end, enum_name, v) {
                out.push(violation(
                    messages,
                    enum_line,
                    RULE_CODEC,
                    format!(
                        "`{enum_name}::{v}` is not handled in `{f}` — a new message variant \
                         must get wire codec + roundtrip coverage before it ships"
                    ),
                ));
            }
        }
    }
    // `const MSG_VARIANTS: u32 = N;` must track the enum.
    for i in 0..codec.toks.len() {
        if codec.ident(i) == Some(count_const) {
            let mut j = i + 1;
            while j < codec.toks.len() && !codec.punct(j, '=') && !codec.punct(j, ';') {
                j += 1;
            }
            if let Some(Tok::Num(n)) = codec.toks.get(j + 1).map(|t| &t.kind) {
                let declared: u32 = n.parse().unwrap_or(0);
                if declared != variants.len() as u32 {
                    out.push(violation(
                        codec,
                        codec.toks[i].line,
                        RULE_CODEC,
                        format!(
                            "`{count_const}` is {declared} but `{enum_name}` has {} variants; \
                             the roundtrip sweep is not exhaustive",
                            variants.len()
                        ),
                    ));
                }
            }
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: durable-before-visible.
// ---------------------------------------------------------------------

/// Within each function body in scope: once a journal push has happened,
/// no visible output may follow until a commit. In a sans-I/O core
/// (`write_path` `None`: every function) those are `self.jlog(…)` or a
/// literal `…::Journal(…)`; `self.persist(…)` or `…::Commit`;
/// `self.send/multicast/multicast_others/reply(…)` or
/// `…::Send/Reply/Deliver`. In a driver's write path (the function
/// `write_path` names) they are `.append(…)`, `.commit(…)`, and a
/// `return` or the body's tail value handing the outcome back. The
/// barrier-free outputs of the VC durability table carry an inline
/// `lint:allow` naming their row.
///
/// A scope must hold at least one journal push, one commit and one
/// visible output outside its tests; one that lacks a kind fails at its
/// file's first line, because the rule would pass there while inspecting
/// nothing.
pub fn check_commit_order(sf: &SourceFile, write_path: Option<&str>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut sites = [false; 3];
    let toks = &sf.toks;
    let mut i = 0usize;
    while i < toks.len() {
        let name = sf.ident(i + 1);
        if sf.ident(i) == Some("fn") && name.is_some() && write_path.is_none_or(|w| name == Some(w))
        {
            if let Some((start, end)) = {
                let mut j = i + 2;
                while j < toks.len() && !sf.punct(j, '{') && !sf.punct(j, ';') {
                    j += 1;
                }
                if sf.punct(j, '{') {
                    skip_balanced(toks, j, '{', '}').map(|e| (j + 1, e))
                } else {
                    None
                }
            } {
                if !sf.test_mask[i] {
                    let path = write_path.is_some();
                    scan_commit_order(sf, path, i + 1, start, end, &mut sites, &mut out);
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    let missing: Vec<&str> = ["journal", "commit", "visible-output"]
        .into_iter()
        .zip(sites)
        .filter_map(|(kind, seen)| (!seen).then_some(kind))
        .collect();
    if !missing.is_empty() && !sf.allowed(RULE_COMMIT_ORDER, 1) {
        let scoped = write_path.map_or("this file".into(), |w| format!("`fn {w}` in this file"));
        out.push(violation(
            sf,
            1,
            RULE_COMMIT_ORDER,
            format!(
                "`commit-order` is scoped to {scoped}, which holds no {} site outside its \
                 tests: the rule inspects nothing here — take it out of the scope",
                missing.join(", no ")
            ),
        ));
    }
    out
}

/// Scans one function body; `sites` records which of the three kinds
/// (journal, commit, visible output) it met.
fn scan_commit_order(
    sf: &SourceFile,
    write_path: bool,
    fn_name_idx: usize,
    start: usize,
    end: usize,
    sites: &mut [bool; 3],
    out: &mut Vec<Violation>,
) {
    let fn_name = sf.ident(fn_name_idx).unwrap_or("?").to_string();
    // Line of the un-committed Journal.
    let mut pending: Option<u32> = None;
    // A write path's tail value: a body that does not end in `;` or `}`.
    let tail = (write_path && end > start && !sf.punct(end - 1, ';') && !sf.punct(end - 1, '}'))
        .then_some(end - 1);
    for i in start..end {
        let after_path = i >= 2 && sf.punct(i - 1, ':') && sf.punct(i - 2, ':');
        let method_call = i >= 1 && sf.punct(i - 1, '.') && sf.punct(i + 1, '(');
        let id = sf.ident(i).unwrap_or_default();
        let kind = match id {
            _ if Some(i) == tail => {
                emit_commit_violation(sf, i, &fn_name, &mut pending, out, "its tail value");
                2
            }
            "append" if write_path && method_call => {
                pending = Some(sf.toks[i].line);
                0
            }
            "commit" if write_path && method_call => {
                pending = None;
                1
            }
            "return" if write_path => {
                emit_commit_violation(sf, i, &fn_name, &mut pending, out, "return");
                2
            }
            "jlog" if method_call => {
                pending = Some(sf.toks[i].line);
                0
            }
            "Journal" if after_path => {
                pending = Some(sf.toks[i].line);
                0
            }
            "persist" if method_call => {
                pending = None;
                1
            }
            "Commit" if after_path => {
                pending = None;
                1
            }
            "send" | "multicast" | "multicast_others" | "reply" if method_call => {
                emit_commit_violation(sf, i, &fn_name, &mut pending, out, id);
                2
            }
            "Send" | "Reply" | "Deliver" if after_path => {
                emit_commit_violation(sf, i, &fn_name, &mut pending, out, id);
                2
            }
            _ => continue,
        };
        sites[kind] = true;
    }
}

fn emit_commit_violation(
    sf: &SourceFile,
    i: usize,
    fn_name: &str,
    pending: &mut Option<u32>,
    out: &mut Vec<Violation>,
    what: &str,
) {
    if let Some(jline) = *pending {
        let line = sf.toks[i].line;
        if !sf.allowed(RULE_COMMIT_ORDER, line) {
            out.push(violation(
                sf,
                line,
                RULE_COMMIT_ORDER,
                format!(
                    "`{fn_name}` emits visible output `{what}` after the Journal pushed on \
                     line {jline} without an intervening Commit; a crash here would show \
                     peers state the replica never durably logged"
                ),
            ));
        }
        *pending = None; // one diagnostic per journal record is enough
    }
}

// ---------------------------------------------------------------------
// Rule 6: the event loop never blocks on a channel.
// ---------------------------------------------------------------------

/// Flags `.recv(…)` / `.recv_timeout(…)` method calls. Scoped (by the
/// workspace walker) to the event-loop module: the readiness loop owns
/// every connection in its process, so one blocking channel receive
/// there stalls all of them — waits must go through `Poller::wait`.
pub fn check_blocking_recv(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, tok) in sf.toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let Some(name) = sf.ident(i) else { continue };
        if (name == "recv" || name == "recv_timeout") && i >= 1 && sf.punct(i - 1, '.') {
            let line = tok.line;
            if !sf.allowed(RULE_BLOCKING_RECV, line) {
                out.push(violation(
                    sf,
                    line,
                    RULE_BLOCKING_RECV,
                    format!(
                        "`.{name}(…)` inside the event-loop module blocks the readiness \
                         loop and every connection it owns; all waiting must go through \
                         the poller — move the blocking call behind an endpoint adapter \
                         or justify with `// lint:allow(blocking-recv, reason)`"
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 7: replica message paths verify signatures batch-first.
// ---------------------------------------------------------------------

/// Flags one-at-a-time signature verification — `.verify(…)` /
/// `::verify(…)` calls — on the VC/BB message-path crates. Those paths
/// must go through `ddemos_crypto::mverify::MsgVerifier` (per-peer tables,
/// one-MSM batches, the burst hand-off); a scalar `verify` there silently
/// reverts a replica's hot path to one group ladder per signature. Setup and
/// audit paths justify themselves with `// lint:allow(scalar-verify, reason)`.
pub fn check_scalar_verify(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, tok) in sf.toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let Some(name) = sf.ident(i) else { continue };
        // `x.verify(…)` or `Type::verify(…)` — the exact `verify` ident in
        // call position. Batch entry points (`verify_batch`,
        // `verify_rows`, `batch_verify_openings`, `or_verify`, …) are
        // different identifiers and pass.
        if name != "verify" || !sf.punct(i + 1, '(') {
            continue;
        }
        let method = i >= 1 && sf.punct(i - 1, '.');
        let assoc = i >= 2 && sf.punct(i - 1, ':') && sf.punct(i - 2, ':');
        if !(method || assoc) {
            continue;
        }
        let line = tok.line;
        if !sf.allowed(RULE_SCALAR_VERIFY, line) {
            out.push(violation(
                sf,
                line,
                RULE_SCALAR_VERIFY,
                "scalar signature verification on a replica message path; route it \
                 through `mverify::MsgVerifier` (check/check_share/check_batch) so it \
                 gets the per-peer tables, the one-MSM batch and the burst hand-off, or \
                 justify a setup/audit call with `// lint:allow(scalar-verify, reason)`"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 8: the honest VC core carries no adversary.
// ---------------------------------------------------------------------

/// The adversary types and the module that defines them. The Byzantine
/// layer wraps the honest machine at its step boundary; none of these
/// may reach back into it.
const ADVERSARY_NAMES: &[&str] = &[
    "VcBehavior",
    "Adversary",
    "Trigger",
    "AdversaryView",
    "behavior",
];

/// Flags every mention of an adversary type (or of the `behavior` module
/// that holds them) in the honest VC state machine. Scoped (by the
/// workspace walker) to `vc/src/core.rs`: a Byzantine collector is the
/// honest core wrapped by `behavior.rs`, so an adversary field, parameter
/// or branch inside the core is a second adversary mechanism.
pub fn check_honest_core(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, tok) in sf.toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let Some(name) = sf.ident(i) else { continue };
        if !ADVERSARY_NAMES.contains(&name) || sf.allowed(RULE_HONEST_CORE, tok.line) {
            continue;
        }
        out.push(violation(
            sf,
            tok.line,
            RULE_HONEST_CORE,
            format!(
                "`{name}` in the honest VC core: adversaries act on the step boundary \
                 (`VcCore` in `behavior.rs`) and read the core only through its read-only \
                 accessors — move the deviation into the Byzantine layer"
            ),
        ));
    }
    out
}
