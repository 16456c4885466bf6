//! The repo-invariant lints.
//!
//! Each lint enforces, at the source level, a convention earlier PRs
//! established operationally:
//!
//! | id | name | invariant |
//! |----|------|-----------|
//! | L1 | no-panic | no `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`.unwrap()` in non-test code of `crates/{net,storage,types,core}`; `.expect(` is inventoried as a warning (repo policy reserves it for process-local invariants no peer can trigger) |
//! | L2 | fallible-op-discipline | a `Result` from a `Communicator`/`Transport`/`ClusterStorage`/`IoEngine` API is never discarded via `let _ =`, `.ok();`, or a bare statement drop |
//! | L3 | unsafe-audit | every `unsafe` block/fn/impl carries a `// SAFETY:` comment; all sites feed the unsafe-inventory artifact |
//! | L4 | trace-span-pairing | a function that opens a trace span (`.begin(`) also closes one (`.end(`), and vice versa — the static twin of `demsort-trace`'s runtime spans-closed check |
//! | L5 | counter-integrity | identity-pinned counter fields (`CpuCounters`, `CommCounters`, `IoCounters`, wire meters) are mutated only in the allowlisted metering modules |
//!
//! Intentional exceptions use the escape hatch
//! `// verify: allow(<lint>, <reason>)` on the offending line or the
//! line above; suppressed findings stay in the JSON report with their
//! reason, and hatches that suppress nothing are flagged as stale.

use crate::report::{AllowedFinding, Finding, Report, Severity, UnsafeSite};
use crate::scan::SourceFile;

/// Lint ids with one-line descriptions (for `--list-lints`).
pub const LINTS: &[(&str, &str, &str)] = &[
    (
        "L1",
        "no-panic",
        "no panic!/unwrap (deny) or expect (warn) in net/storage/types/core non-test code",
    ),
    (
        "L2",
        "fallible-op-discipline",
        "no discarded Result from Communicator/Transport/ClusterStorage/IoEngine APIs",
    ),
    (
        "L3",
        "unsafe-audit",
        "every unsafe site carries a SAFETY: comment (and feeds the unsafe inventory)",
    ),
    ("L4", "trace-span-pairing", "functions open and close trace spans together"),
    ("L5", "counter-integrity", "counter fields mutate only in allowlisted metering modules"),
];

/// Crates whose non-test code must be panic-free (L1). The old CI awk
/// guard covered `crates/net`, `crates/storage`, and three `types`
/// modules, and stopped scanning each file at its first
/// `#[cfg(test)]`; this list is a strict superset and scoping is
/// per-item.
const L1_SCOPE: &[&str] = &["crates/net/", "crates/storage/", "crates/types/", "crates/core/"];

/// Macro names that abort a rank.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method/function names of the fallible cluster APIs (L2). Keyed by
/// name because the analyzer is token-level; the list holds the
/// `Result`-returning surface of:
/// `Transport`/`Communicator` (net), `ClusterStorage`/`BlockFetch`/
/// `BlockStore` (core::ctx), and `IoEngine`/`IoHandle` (storage).
const FALLIBLE_METHODS: &[&str] = &[
    // Transport + Communicator
    "send",
    "send_bytes",
    "send_vectored",
    "recv",
    "flush",
    "barrier",
    "broadcast",
    "gather",
    "allgather",
    "allgather_u64",
    "allreduce_u64",
    "allreduce_sum",
    "allreduce_max",
    "allreduce_and",
    "exscan_sum",
    "alltoallv",
    "chunked_alltoallv",
    "advance_epoch",
    "drain_to_epoch",
    // ClusterStorage + fetch/store handles
    "fetch_block",
    "fetch_blocks",
    "fetch_blocks_scheduled",
    "fetch_block_cached",
    "store_blocks",
    "wait",
    // IoEngine
    "read_sync",
    "write_sync",
    "drain",
    // Block and record readers
    "next_rec",
    "read_to_vec",
    "read_records",
    "read_run",
];

/// Statement-leading keywords that disqualify the bare-drop pattern.
const STMT_KEYWORDS: &[&str] = &[
    "let", "if", "while", "for", "match", "return", "else", "loop", "break", "continue", "use",
    "pub", "const", "static", "fn", "struct", "enum", "impl", "mod", "type", "trait", "unsafe",
    "move", "async", "where", "extern", "crate", "in",
];

/// Identity-pinned counter fields (L5): `CpuCounters`, `CommCounters`,
/// `IoCounters`, and the TCP wire meters.
const COUNTER_FIELDS: &[&str] = &[
    "elements_sorted",
    "sort_work",
    "elements_merged",
    "merge_work",
    "split_probes",
    "host_wall_ns",
    "bytes_sent",
    "bytes_recv",
    "messages",
    "bytes_read",
    "bytes_written",
    "blocks_read",
    "blocks_written",
    "max_disk_busy_ns",
    "wire_sent",
    "wire_recv",
];

/// Files allowed to mutate counter fields: the metering modules where
/// the work being counted actually happens. Anything else bumping a
/// counter would silently skew the byte- and counter-identity pins.
const L5_ALLOWED_FILES: &[&str] = &[
    "crates/types/src/counters.rs",
    "crates/net/src/comm.rs",
    "crates/net/src/tcp/link.rs",
    "crates/storage/src/engine.rs",
    "crates/storage/src/disk.rs",
    "crates/core/src/ctx.rs",
    "crates/core/src/seqsort.rs",
    "crates/core/src/psort.rs",
    "crates/core/src/runform.rs",
    "crates/core/src/localmerge.rs",
    "crates/core/src/striped/merge.rs",
];

/// Lines a `SAFETY:` comment may end above the `unsafe` token it
/// documents (covers multi-line justifications).
const SAFETY_WINDOW: u32 = 8;

/// Run every lint over `file`, appending to `report`. Stale escape
/// hatches are reported after the lints so a hatch consumed by any
/// lint on the file counts as used.
pub fn run_lints(file: &SourceFile, report: &mut Report) {
    lint_l1_no_panic(file, report);
    lint_l2_fallible_discipline(file, report);
    lint_l3_unsafe_audit(file, report);
    lint_l4_span_pairing(file, report);
    lint_l5_counter_integrity(file, report);
    for a in &file.allows {
        if !a.used.get() {
            report.findings.push(Finding {
                lint: "L0",
                severity: Severity::Warn,
                file: file.path.clone(),
                line: a.line,
                message: format!(
                    "stale escape hatch: `verify: allow({}, {})` suppresses nothing",
                    a.lint, a.reason
                ),
            });
        }
    }
}

/// Emit one finding, routing it through the escape hatch if present.
fn emit(
    file: &SourceFile,
    report: &mut Report,
    lint: &'static str,
    severity: Severity,
    line: u32,
    message: String,
) {
    let finding = Finding { lint, severity, file: file.path.clone(), line, message };
    match file.allow_for(lint, line) {
        Some(a) => report.allowed.push(AllowedFinding { finding, reason: a.reason.clone() }),
        None => report.findings.push(finding),
    }
}

/// L1: no panic paths in the fault-tolerant crates.
fn lint_l1_no_panic(file: &SourceFile, report: &mut Report) {
    if !L1_SCOPE.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let code = file.code_indices();
    for (k, &i) in code.iter().enumerate() {
        if file.is_test[i] {
            continue;
        }
        let t = &file.toks[i];
        let next = code.get(k + 1).map(|&j| &file.toks[j]);
        let next2 = code.get(k + 2).map(|&j| &file.toks[j]);
        if PANIC_MACROS.contains(&t.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
            emit(
                file,
                report,
                "L1",
                Severity::Deny,
                t.line,
                format!(
                    "`{}!` aborts the rank; collectives and storage faults must surface as `Result` (Error::Comm / Error::Io)",
                    t.text
                ),
            );
        } else if t.is_punct('.') && next2.is_some_and(|n| n.is_punct('(')) {
            if next.is_some_and(|n| n.is_ident("unwrap")) {
                emit(
                    file,
                    report,
                    "L1",
                    Severity::Deny,
                    t.line,
                    "`.unwrap()` panics on Err/None; propagate with `?` or handle the failure"
                        .into(),
                );
            } else if next.is_some_and(|n| n.is_ident("expect")) {
                emit(
                    file,
                    report,
                    "L1",
                    Severity::Warn,
                    t.line,
                    "`.expect(` is reserved for process-local invariants no peer can trigger (lock poisoning, thread spawn); audit that this one qualifies".into(),
                );
            }
        }
    }
}

/// L2: a `Result` from the cluster APIs must be consumed.
///
/// Statements are token runs between `;`/`{`/`}`; that splits a
/// closure-bearing statement at the closure body, which can only make
/// this lint *miss* a discard, never invent one.
fn lint_l2_fallible_discipline(file: &SourceFile, report: &mut Report) {
    let code = file.code_indices();
    let mut stmt: Vec<usize> = Vec::new();
    for &i in &code {
        let t = &file.toks[i];
        if t.is_punct('{') || t.is_punct('}') {
            stmt.clear();
        } else if t.is_punct(';') {
            check_statement(file, report, &stmt);
            stmt.clear();
        } else {
            stmt.push(i);
        }
    }
}

fn check_statement(file: &SourceFile, report: &mut Report, stmt: &[usize]) {
    let Some(&first) = stmt.first() else { return };
    if file.is_test[first] {
        return;
    }
    let tok = |j: usize| &file.toks[stmt[j]];
    // The fallible call the statement contains, if any.
    let called = (0..stmt.len().saturating_sub(1)).rev().find_map(|j| {
        let t = tok(j);
        (t.kind == crate::lexer::TokKind::Ident
            && FALLIBLE_METHODS.contains(&t.text.as_str())
            && tok(j + 1).is_punct('('))
        .then(|| t.text.clone())
    });
    let Some(called) = called else { return };
    let last = tok(stmt.len() - 1);
    if last.is_punct('?') {
        return; // `let _ = c.recv(from)?;` — the Result is propagated.
    }
    let line = file.toks[first].line;
    let n = stmt.len();
    let hatch = "handle it, `?` it, or annotate `// verify: allow(L2, reason)`";
    if n > 2 && tok(0).is_ident("let") && tok(1).is_ident("_") && tok(2).is_punct('=') {
        emit(
            file,
            report,
            "L2",
            Severity::Deny,
            line,
            format!("`let _ =` discards the Result of fallible `{called}`; {hatch}"),
        );
    } else if n > 4
        && tok(n - 4).is_punct('.')
        && tok(n - 3).is_ident("ok")
        && tok(n - 2).is_punct('(')
        && tok(n - 1).is_punct(')')
    {
        emit(
            file,
            report,
            "L2",
            Severity::Deny,
            line,
            format!("`.ok();` swallows the error from fallible `{called}`; {hatch}"),
        );
    } else if bare_drop(file, stmt, &called) {
        emit(
            file,
            report,
            "L2",
            Severity::Deny,
            line,
            format!("statement drops the Result of fallible `{called}` on the floor; {hatch}"),
        );
    }
}

/// True if `stmt` is a bare expression statement whose trailing call
/// is the fallible `called` — e.g. `c.barrier();`. Anything that
/// binds, branches, propagates, or runs a macro is not a bare drop.
fn bare_drop(file: &SourceFile, stmt: &[usize], called: &str) -> bool {
    let toks: Vec<&crate::lexer::Tok> = stmt.iter().map(|&i| &file.toks[i]).collect();
    let first = toks[0];
    if first.kind == crate::lexer::TokKind::Ident && STMT_KEYWORDS.contains(&first.text.as_str()) {
        return false;
    }
    if toks.iter().any(|t| t.is_punct('=') || t.is_punct('?') || t.is_punct('!')) {
        return false;
    }
    if !toks.last().is_some_and(|t| t.is_punct(')')) {
        return false;
    }
    // The fallible call must be the statement's own trailing call, not
    // an argument to a consumer: `c.barrier();` has `barrier` at paren
    // depth 0, while in `consume(c.recv(..));` the `recv` sits at
    // depth 1 — its Result is consumed, not dropped.
    let mut depth = 0i64;
    let mut top_call = None;
    for j in 0..toks.len() {
        if toks[j].is_punct('(') {
            if depth == 0 && j > 0 && toks[j - 1].kind == crate::lexer::TokKind::Ident {
                top_call = Some(toks[j - 1].text.as_str());
            }
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
        }
    }
    top_call == Some(called)
}

/// L3: every `unsafe` site needs a `SAFETY:` comment; all sites are
/// inventoried (test code included — an undocumented `unsafe` in a
/// test is still auditable surface).
fn lint_l3_unsafe_audit(file: &SourceFile, report: &mut Report) {
    let code = file.code_indices();
    for (k, &i) in code.iter().enumerate() {
        let t = &file.toks[i];
        if !t.is_ident("unsafe") {
            continue;
        }
        let kind = match code.get(k + 1).map(|&j| &file.toks[j]) {
            Some(n) if n.is_punct('{') => "block",
            Some(n) if n.is_ident("fn") => "fn",
            Some(n) if n.is_ident("impl") => "impl",
            Some(n) if n.is_ident("trait") => "trait",
            _ => "other",
        };
        let documented = file.has_safety_comment(t.line, SAFETY_WINDOW);
        report.unsafe_sites.push(UnsafeSite {
            file: file.path.clone(),
            line: t.line,
            kind,
            func: file.fn_of[i].map(|fi| file.fns[fi].name.clone()),
            documented,
            in_test: file.is_test[i],
        });
        if !documented {
            emit(
                file,
                report,
                "L3",
                Severity::Deny,
                t.line,
                format!("`unsafe` {kind} without a `// SAFETY:` comment justifying it"),
            );
        }
    }
}

/// L4: span open/close calls must pair up inside each function — the
/// static twin of `demsort-trace`'s runtime "spans closed exactly
/// once" validation.
fn lint_l4_span_pairing(file: &SourceFile, report: &mut Report) {
    let code = file.code_indices();
    // Per function (None = module level): first line and count of
    // `.begin(` / `.end(` calls.
    let mut spans: std::collections::BTreeMap<Option<usize>, [(u32, usize); 2]> =
        std::collections::BTreeMap::new();
    for (k, &i) in code.iter().enumerate() {
        if file.is_test[i] {
            continue;
        }
        let t = &file.toks[i];
        if !t.is_punct('.') {
            continue;
        }
        let next = code.get(k + 1).map(|&j| &file.toks[j]);
        let next2 = code.get(k + 2).map(|&j| &file.toks[j]);
        if !next2.is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let slot = match next {
            Some(n) if n.is_ident("begin") => 0,
            Some(n) if n.is_ident("end") => 1,
            _ => continue,
        };
        let e = spans.entry(file.fn_of[i]).or_insert([(0, 0); 2]);
        if e[slot].1 == 0 {
            e[slot].0 = t.line;
        }
        e[slot].1 += 1;
    }
    for (f, [(bline, begins), (eline, ends)]) in spans {
        let name = f.map_or("<module scope>".to_string(), |fi| file.fns[fi].name.clone());
        if begins > 0 && ends == 0 {
            emit(
                file,
                report,
                "L4",
                Severity::Deny,
                bline,
                format!("fn `{name}` opens a trace span (`.begin(`) but never closes one"),
            );
        } else if ends > 0 && begins == 0 {
            emit(
                file,
                report,
                "L4",
                Severity::Deny,
                eline,
                format!("fn `{name}` closes a trace span (`.end(`) it never opened"),
            );
        }
    }
}

/// L5: counter fields mutate only in the metering modules.
fn lint_l5_counter_integrity(file: &SourceFile, report: &mut Report) {
    if L5_ALLOWED_FILES.contains(&file.path.as_str()) {
        return;
    }
    let code = file.code_indices();
    for (k, &i) in code.iter().enumerate() {
        if file.is_test[i] {
            continue;
        }
        if !file.toks[i].is_punct('.') {
            continue;
        }
        let Some(&fi) = code.get(k + 1) else { continue };
        let field = &file.toks[fi];
        if field.kind != crate::lexer::TokKind::Ident
            || !COUNTER_FIELDS.contains(&field.text.as_str())
        {
            continue;
        }
        let t2 = code.get(k + 2).map(|&j| &file.toks[j]);
        let t3 = code.get(k + 3).map(|&j| &file.toks[j]);
        let t4 = code.get(k + 4).map(|&j| &file.toks[j]);
        let mutated = match t2 {
            Some(p) if p.is_punct('+') || p.is_punct('-') => t3.is_some_and(|n| n.is_punct('=')),
            Some(p) if p.is_punct('=') => !t3.is_some_and(|n| n.is_punct('=')),
            Some(p) if p.is_punct('.') => {
                t4.is_some_and(|n| n.is_punct('('))
                    && t3.is_some_and(|n| {
                        n.is_ident("set") || n.is_ident("fetch_add") || n.is_ident("store")
                    })
            }
            _ => false,
        };
        if mutated {
            emit(
                file,
                report,
                "L5",
                Severity::Deny,
                field.line,
                format!(
                    "counter field `{}` mutated outside the allowlisted metering modules; identity pins depend on these staying honest",
                    field.text
                ),
            );
        }
    }
}
