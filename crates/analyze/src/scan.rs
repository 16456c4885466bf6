//! Structural view of one lexed source file.
//!
//! The lints need four facts the raw token stream does not carry:
//!
//! 1. **Test scoping** — which tokens live under `#[cfg(test)]` (or in
//!    a `mod tests`) and are therefore exempt from the production-code
//!    lints. Unlike the old CI `awk` guard, which stopped scanning a
//!    file at its first `#[cfg(test)]`, scoping here is per-item: code
//!    *after* a test module is still scanned.
//! 2. **Function attribution** — which named `fn` a token belongs to
//!    (innermost wins; closure bodies belong to their enclosing `fn`),
//!    so per-function lints like span pairing have a unit to check.
//! 3. **Escape hatches** — `// verify: allow(L2, reason)` comments
//!    that suppress a finding on the same or the following line while
//!    keeping it (with its reason) in the machine-readable report.
//! 4. **`SAFETY:` comments** — where they end, so the unsafe audit can
//!    tie an `unsafe` token to its justification.

use crate::lexer::{lex, Tok, TokKind};

/// A named function found in the file.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// The function's name (identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True if the function is inside test-scoped code.
    pub is_test: bool,
}

/// One `// verify: allow(<lint>, <reason>)` escape hatch.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Lint id the hatch names (e.g. `"L2"`).
    pub lint: String,
    /// Free-form justification from the comment.
    pub reason: String,
    /// Line the comment starts on; it suppresses findings on this line
    /// and the next.
    pub line: u32,
    /// Set by the lint pass when a finding actually used this hatch —
    /// hatches that suppress nothing are reported as stale.
    pub used: std::cell::Cell<bool>,
}

/// A lexed file plus the structure the lints consume.
pub struct SourceFile {
    /// Repo-relative path with `/` separators (lint scoping keys on
    /// path prefixes).
    pub path: String,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// `is_test[i]` — token `i` is inside test-scoped code.
    pub is_test: Vec<bool>,
    /// `fn_of[i]` — index into [`SourceFile::fns`] of the innermost
    /// named function containing token `i`.
    pub fn_of: Vec<Option<usize>>,
    /// Named functions in source order.
    pub fns: Vec<FnInfo>,
    /// Escape hatches found in comments.
    pub allows: Vec<Allow>,
    /// End line of every comment containing `SAFETY:`.
    pub safety_lines: Vec<u32>,
}

impl SourceFile {
    /// Lex and structure `src` under the given repo-relative path.
    pub fn parse(path: impl Into<String>, src: &str) -> SourceFile {
        let toks = lex(src);
        let mut f = SourceFile {
            path: path.into(),
            is_test: vec![false; toks.len()],
            fn_of: vec![None; toks.len()],
            fns: Vec::new(),
            allows: Vec::new(),
            safety_lines: Vec::new(),
            toks,
        };
        f.scan_comments();
        f.mark_test_regions();
        f.attribute_functions();
        f
    }

    /// Indices of non-comment tokens.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.toks.len()).filter(|&i| !self.toks[i].is_comment()).collect()
    }

    /// The first [`Allow`] for `lint` covering `line` (the hatch's own
    /// line or the line after it), marking it used.
    pub fn allow_for(&self, lint: &str, line: u32) -> Option<&Allow> {
        let a = self
            .allows
            .iter()
            .find(|a| a.lint == lint && (a.line == line || a.line + 1 == line))?;
        a.used.set(true);
        Some(a)
    }

    /// True if a `SAFETY:` comment ends within `window` lines above
    /// (or on) `line`.
    pub fn has_safety_comment(&self, line: u32, window: u32) -> bool {
        self.safety_lines.iter().any(|&s| s <= line && line - s <= window)
    }

    fn scan_comments(&mut self) {
        for t in &self.toks {
            if !t.is_comment() {
                continue;
            }
            let end_line = t.line + t.text.matches('\n').count() as u32;
            if t.text.contains("SAFETY:") {
                self.safety_lines.push(end_line);
            }
            if let Some(allow) = parse_allow(&t.text, t.line) {
                self.allows.push(allow);
            }
        }
    }

    /// Mark tokens under `#[cfg(test)]`-gated items and `mod test*`
    /// bodies. A gated item extends to its closing `}` (or a `;` for
    /// body-less items); nesting is handled by brace depth. A `mod
    /// test*` body may also be a file of its own (`mod tests;` beside
    /// `tests.rs`): such a file is test code as a whole.
    fn mark_test_regions(&mut self) {
        let stem = self.path.rsplit('/').next().and_then(|f| f.strip_suffix(".rs"));
        if stem.is_some_and(|s| s == "tests" || s.starts_with("test_")) {
            self.is_test.fill(true);
            return;
        }
        let code = self.code_indices();
        let mut depth: i64 = 0; // brace depth
        let mut pb: i64 = 0; // paren + bracket depth
                             // Stack of brace depths at which a test region ends.
        let mut test_ends: Vec<i64> = Vec::new();
        // A test gate was seen; the next item body/terminator closes it.
        let mut pending = false;
        let mut k = 0usize;
        while k < code.len() {
            let i = code[k];
            let t = &self.toks[i];
            let in_test = !test_ends.is_empty() || pending;
            self.is_test[i] = in_test;

            if t.is_punct('{') {
                if pending && pb == 0 {
                    pending = false;
                    test_ends.push(depth);
                    // Re-mark: the body belongs to the region.
                    self.is_test[i] = true;
                }
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if test_ends.last().is_some_and(|&d| depth == d) {
                    test_ends.pop();
                    self.is_test[i] = true;
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                pb += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                pb -= 1;
            } else if t.is_punct(';') && pending && pb == 0 {
                // `#[cfg(test)] use …;` — item without a body.
                pending = false;
            } else if t.is_punct('#') && !in_test {
                // Attribute: scan the bracketed group for a cfg gate
                // naming `test`.
                if let Some((end_k, gates_test)) = scan_attr(&self.toks, &code, k) {
                    if gates_test {
                        pending = true;
                        for &j in &code[k..=end_k] {
                            self.is_test[j] = true;
                        }
                    }
                    // Do not skip the group: depth/pb tracking above
                    // already handles its brackets on the next
                    // iterations, and attrs contain no braces.
                }
            } else if t.is_ident("mod") && !in_test {
                // `mod tests { … }` (belt and braces with the cfg
                // attribute, and covers uncfg'd test modules).
                if let Some(&next) = code.get(k + 1) {
                    let n = &self.toks[next];
                    if n.kind == TokKind::Ident
                        && (n.text == "tests" || n.text.starts_with("test_"))
                    {
                        pending = true;
                        self.is_test[i] = true;
                    }
                }
            }
            k += 1;
        }
    }

    /// Attribute every token to the innermost named `fn` whose body
    /// contains it.
    fn attribute_functions(&mut self) {
        let code = self.code_indices();
        let mut depth: i64 = 0;
        let mut pb: i64 = 0;
        // (fn index, brace depth before its body opened)
        let mut stack: Vec<(usize, i64)> = Vec::new();
        // A `fn name` seen, body brace not yet reached.
        let mut pending: Option<usize> = None;
        for (k, &i) in code.iter().enumerate() {
            let t = &self.toks[i];
            if t.is_punct('{') {
                if let Some(f) = pending.take() {
                    if pb == 0 {
                        stack.push((f, depth));
                    }
                }
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if stack.last().is_some_and(|&(_, d)| depth == d) {
                    stack.pop();
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                pb += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                pb -= 1;
            } else if t.is_punct(';') && pb == 0 {
                // Body-less declaration (trait method signature).
                pending = None;
            } else if t.is_ident("fn") {
                if let Some(&next) = code.get(k + 1) {
                    let n = &self.toks[next];
                    if n.kind == TokKind::Ident {
                        self.fns.push(FnInfo {
                            name: n.text.clone(),
                            line: t.line,
                            is_test: self.is_test[i],
                        });
                        pending = Some(self.fns.len() - 1);
                    }
                }
            }
            self.fn_of[i] = stack.last().map(|&(f, _)| f);
        }
    }
}

/// Parse `verify: allow(<lint>, <reason>)` out of a comment's text.
fn parse_allow(text: &str, line: u32) -> Option<Allow> {
    // Doc comments describe the hatch syntax without enacting it —
    // rustdoc prose must never suppress a finding (or count as stale).
    if ["///", "//!", "/**", "/*!"].iter().any(|p| text.starts_with(p)) {
        return None;
    }
    let rest = text.split("verify:").nth(1)?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (lint, reason) = match inner.split_once(',') {
        Some((l, r)) => (l.trim().to_string(), r.trim().to_string()),
        None => (inner.trim().to_string(), String::new()),
    };
    if lint.is_empty() {
        return None;
    }
    Some(Allow { lint, reason, line, used: std::cell::Cell::new(false) })
}

/// If `code[k]` starts an attribute (`#` `[` …), return the code index
/// of its closing `]` and whether it is a `cfg`/`cfg_attr` gate that
/// names `test`.
fn scan_attr(toks: &[Tok], code: &[usize], k: usize) -> Option<(usize, bool)> {
    let open = *code.get(k + 1)?;
    if !toks[open].is_punct('[') {
        return None;
    }
    let mut depth = 0i64;
    let mut saw_cfg = false;
    let mut saw_test = false;
    for (off, &i) in code.iter().enumerate().skip(k + 1) {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((off, saw_cfg && saw_test));
            }
        } else if t.is_ident("cfg") || t.is_ident("cfg_attr") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            // `#[cfg(not(test))]` gates *production* code — only a
            // `test` not directly under `not(` marks a test item.
            let negated = off >= 2
                && toks[code[off - 1]].is_punct('(')
                && toks[code[off - 2]].is_ident("not");
            if !negated {
                saw_test = true;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src)
    }

    fn test_idents(f: &SourceFile) -> Vec<(String, bool)> {
        f.toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokKind::Ident)
            .map(|(i, t)| (t.text.clone(), f.is_test[i]))
            .collect()
    }

    #[test]
    fn cfg_test_scopes_one_item_not_the_rest_of_the_file() {
        let f = parse(
            "fn prod_before() {}\n\
             #[cfg(test)]\nmod tests {\n    fn in_tests() { helper(); }\n}\n\
             fn prod_after() {}\n",
        );
        let ids = test_idents(&f);
        let flag = |name: &str| ids.iter().find(|(n, _)| n == name).map(|(_, t)| *t);
        assert_eq!(flag("prod_before"), Some(false));
        assert_eq!(flag("in_tests"), Some(true));
        assert_eq!(flag("helper"), Some(true));
        assert_eq!(flag("prod_after"), Some(false), "scan must continue past the test mod");
    }

    #[test]
    fn a_test_module_in_a_file_of_its_own_is_test_code() {
        let src = "use super::*;\nfn helper() { x.unwrap(); }\n";
        for (path, test) in [
            ("crates/x/src/striped/tests.rs", true),
            ("crates/x/src/test_util.rs", true),
            ("crates/x/src/striped/merge.rs", false),
            ("crates/x/src/contests.rs", false),
        ] {
            let f = SourceFile::parse(path, src);
            assert!(f.is_test.iter().all(|&t| t == test), "{path}");
            assert_eq!(f.fns[0].is_test, test, "{path}");
        }
    }

    #[test]
    fn cfg_test_on_single_fn_and_use() {
        let f = parse(
            "#[cfg(test)]\nuse std::fmt;\n\
             #[cfg(test)]\nfn only_for_tests() {}\n\
             fn prod() {}\n",
        );
        let ids = test_idents(&f);
        let flag = |name: &str| ids.iter().find(|(n, _)| n == name).map(|(_, t)| *t);
        assert_eq!(flag("fmt"), Some(true));
        assert_eq!(flag("only_for_tests"), Some(true));
        assert_eq!(flag("prod"), Some(false));
    }

    #[test]
    fn functions_attributed_innermost() {
        let f = parse(
            "fn outer() {\n    let c = |x: u32| { inner_call(); };\n    c(1);\n}\n\
             fn second() { other(); }\n",
        );
        assert_eq!(f.fns.len(), 2);
        let of = |name: &str| {
            let i = f.toks.iter().position(|t| t.is_ident(name)).expect("token");
            f.fn_of[i].map(|fi| f.fns[fi].name.clone())
        };
        assert_eq!(of("inner_call"), Some("outer".into()));
        assert_eq!(of("other"), Some("second".into()));
    }

    #[test]
    fn allows_and_safety_comments() {
        let f = parse(
            "// verify: allow(L2, shutdown path is best-effort)\n\
             fn x() {}\n\
             // SAFETY: fully initialized above\n\
             fn y() {}\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].lint, "L2");
        assert_eq!(f.allows[0].reason, "shutdown path is best-effort");
        assert!(f.allow_for("L2", 2).is_some(), "covers the following line");
        assert!(f.allow_for("L2", 3).is_none());
        assert!(f.has_safety_comment(4, 8));
        assert!(!f.has_safety_comment(2, 8));
    }

    #[test]
    fn trait_method_signatures_have_no_body() {
        let f = parse("trait T { fn sig(&self) -> u32; }\nfn real() { work(); }\n");
        let i = f.toks.iter().position(|t| t.is_ident("work")).expect("token");
        assert_eq!(f.fn_of[i].map(|fi| f.fns[fi].name.as_str()), Some("real"));
    }
}
