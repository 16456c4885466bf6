//! End-to-end analyzer tests: one known-bad fixture per lint (each
//! must trigger exactly its lint at the expected lines), a clean
//! fixture exercising the escape hatch and lexer-hostile constructs,
//! and the live-repo gate — the workspace this crate ships in must
//! analyze deny-clean.

use demsort_analyze::report::{Report, Severity};
use demsort_analyze::{analyze_root, analyze_sources};

fn run_fixture(path: &str, src: &str) -> Report {
    analyze_sources(&[(path, src)])
}

/// `(lint, line)` of every deny finding, in report order.
fn denies(report: &Report) -> Vec<(&'static str, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .map(|f| (f.lint, f.line))
        .collect()
}

#[test]
fn l1_fixture_flags_panic_and_unwrap_only() {
    let report = run_fixture("crates/net/src/l1_bad.rs", include_str!("fixtures/l1_bad.rs"));
    assert_eq!(denies(&report), [("L1", 4), ("L1", 8)], "{:?}", report.findings);
    // `.expect(` is inventoried as a warning, and the test-scoped
    // panic on line 19 is exempt.
    let warns: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .map(|f| (f.lint, f.line))
        .collect();
    assert_eq!(warns, [("L1", 12)]);
}

#[test]
fn l1_scope_is_limited_to_the_fault_tolerant_crates() {
    // The same source under crates/bench is out of L1 scope.
    let report = run_fixture("crates/bench/src/l1_bad.rs", include_str!("fixtures/l1_bad.rs"));
    assert_eq!(denies(&report), []);
}

#[test]
fn l2_fixture_flags_all_three_discard_forms() {
    let report = run_fixture("crates/core/src/l2_bad.rs", include_str!("fixtures/l2_bad.rs"));
    // `let _ =` (4), `.ok();` (5), bare drops (6, 7 — a record read);
    // the `?`-propagated and argument-consumed calls on lines 11–12 are
    // fine.
    assert_eq!(
        denies(&report),
        [("L2", 4), ("L2", 5), ("L2", 6), ("L2", 7)],
        "{:?}",
        report.findings
    );
    assert!(report.findings.iter().all(|f| f.lint == "L2"));
}

#[test]
fn l3_fixture_flags_undocumented_unsafe_and_inventories_both() {
    let report = run_fixture("crates/types/src/l3_bad.rs", include_str!("fixtures/l3_bad.rs"));
    assert_eq!(denies(&report), [("L3", 4)], "{:?}", report.findings);
    assert_eq!(report.unsafe_sites.len(), 2);
    assert!(!report.unsafe_sites[0].documented);
    assert!(report.unsafe_sites[1].documented);
    assert_eq!(report.unsafe_sites[0].func.as_deref(), Some("undocumented"));
    assert_eq!(report.unsafe_sites[1].func.as_deref(), Some("documented"));
}

#[test]
fn l4_fixture_flags_only_the_lopsided_function() {
    let report = run_fixture("crates/core/src/l4_bad.rs", include_str!("fixtures/l4_bad.rs"));
    assert_eq!(denies(&report), [("L4", 4)], "{:?}", report.findings);
    assert!(report.findings[0].message.contains("lopsided"));
}

#[test]
fn l5_fixture_flags_the_counter_mutation() {
    let report = run_fixture("crates/core/src/l5_bad.rs", include_str!("fixtures/l5_bad.rs"));
    assert_eq!(denies(&report), [("L5", 4)], "{:?}", report.findings);
    assert!(report.findings[0].message.contains("elements_sorted"));
}

#[test]
fn l5_allowlisted_metering_module_is_exempt() {
    let report = run_fixture("crates/types/src/counters.rs", include_str!("fixtures/l5_bad.rs"));
    assert_eq!(denies(&report), []);
}

#[test]
fn clean_fixture_passes_with_one_allowed_finding() {
    let report = run_fixture("crates/net/src/clean.rs", include_str!("fixtures/clean.rs"));
    assert_eq!(denies(&report), [], "{:?}", report.findings);
    // No stale-hatch warnings either: the one hatch is consumed.
    assert_eq!(report.findings.len(), 0, "{:?}", report.findings);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].finding.lint, "L2");
    assert_eq!(report.allowed[0].reason, "fixture demonstrates the escape hatch");
}

#[test]
fn stale_escape_hatch_is_flagged() {
    let src = "// verify: allow(L2, nothing here discards anything)\nfn quiet() {}\n";
    let report = run_fixture("crates/net/src/stale.rs", src);
    assert_eq!(denies(&report), []);
    let warns: Vec<_> = report.findings.iter().map(|f| (f.lint, f.line)).collect();
    assert_eq!(warns, [("L0", 1)], "{:?}", report.findings);
}

#[test]
fn doc_comments_describing_the_hatch_are_not_hatches() {
    // Rustdoc prose about `verify: allow(<lint>, <reason>)` must not
    // suppress the finding on the next line, nor count as stale.
    let src = "//! Docs: `verify: allow(L2, some reason)` syntax.\n\
               fn leak(c: &Communicator) {\n    let _ = c.barrier();\n}\n";
    let report = run_fixture("crates/net/src/doc.rs", src);
    assert_eq!(denies(&report), [("L2", 3)], "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.lint != "L0"));
    assert!(report.allowed.is_empty());
}

#[test]
fn live_repo_is_deny_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_root(&root).expect("workspace sources readable");
    assert!(report.files_scanned > 50, "scanned only {} files", report.files_scanned);
    let deny: Vec<_> = report.findings.iter().filter(|f| f.severity == Severity::Deny).collect();
    assert!(deny.is_empty(), "deny findings in the live repo: {deny:#?}");
    // Every escape hatch in the repo must carry a reason; stale ones
    // surface as L0 warnings and should not exist either.
    assert!(report.allowed.iter().all(|a| !a.reason.is_empty()));
    assert!(
        !report.findings.iter().any(|f| f.lint == "L0"),
        "stale escape hatches: {:#?}",
        report.findings.iter().filter(|f| f.lint == "L0").collect::<Vec<_>>()
    );
}
