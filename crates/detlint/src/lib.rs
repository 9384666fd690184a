#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! mosaic-detlint — the workspace determinism-and-invariant linter.
//!
//! The repo's verification story (golden gating, byte-identical
//! results across `--jobs` counts, zero-cost sanitizer/profiler/chaos)
//! rests on invariants that would otherwise be enforced only by
//! convention. Most of them are checked by tools CI already runs:
//! `clippy.toml` bans hash-ordered containers, the wall clock and
//! ambient host state; `[workspace.lints]` confines `unsafe` and wants
//! a reason on every `#[allow]`; each canonical serializer destructures
//! its struct, so an undigested field does not compile. This crate
//! keeps the checks that need a lexer and domain knowledge: a
//! dependency-free pass over the workspace's Rust sources with a
//! hand-rolled lexer ([`lexer`]), a rule catalog ([`rules::RULES`]) and
//! span-accurate diagnostics.
//!
//! The one escape hatch is an in-source directive on (or directly
//! above) the offending line — spelled `detlint: allow(D00x) -- reason`
//! after a `//` comment marker, the reason mandatory.
//!
//! `detlint --workspace` exits nonzero on any unsuppressed finding;
//! `--self-check` additionally fails on directives that no longer
//! suppress anything, so they cannot rot. The dynamic checkers in
//! `crates/san` catch what a given run executes; this pass catches the
//! whole class before anything runs.

pub mod lexer;
pub mod rules;

pub use rules::{classify, FileClass, Finding};

use std::path::{Path, PathBuf};

/// A parsed in-source `detlint: allow(D00x) -- reason` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// The rule code it suppresses.
    pub rule: String,
    /// 1-based line of the directive comment (its last line, for
    /// block comments). The directive covers findings on this line
    /// (trailing form) and the next line (standalone form).
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Whether the directive suppressed at least one finding.
    pub used: bool,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that survived in-source directives.
    pub findings: Vec<Finding>,
    /// All well-formed directives, with usage marked.
    pub directives: Vec<Directive>,
}

/// Parse in-source directives out of the comment stream; malformed
/// ones (recognized prefix but unparseable) become D010 findings.
fn parse_directives(path: &str, comments: &[lexer::Comment]) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .and_then(|(code, tail)| {
                let code = code.trim();
                let reason_ok = tail
                    .trim_start()
                    .strip_prefix("--")
                    .is_some_and(|r| !r.trim().is_empty());
                let code_ok =
                    code.len() == 4 && code.starts_with('D') && rules::rule_info(code).is_some();
                (code_ok && reason_ok).then(|| code.to_string())
            });
        match parsed {
            Some(rule) => directives.push(Directive {
                rule,
                line: c.end_line,
                col: c.col,
                used: false,
            }),
            None => findings.push(Finding {
                rule: "D010",
                path: path.to_string(),
                line: c.line,
                col: c.col,
                message: "malformed detlint directive: expected \
                          `detlint: allow(D0xx) -- reason` with a known rule code \
                          and a non-empty reason"
                    .to_string(),
            }),
        }
    }
    (directives, findings)
}

/// Scan one file's source under the given [`FileClass`], applying
/// in-source directives. `path` is the label used in diagnostics.
pub fn scan_file(path: &str, source: &str, class: &FileClass) -> FileScan {
    let lexed = lexer::lex(source);
    let raw = rules::per_file_rules(path, &lexed, class);
    let (mut directives, malformed) = parse_directives(path, &lexed.comments);
    let mut findings = Vec::new();
    for f in raw {
        let suppressed = directives
            .iter_mut()
            .find(|d| d.rule == f.rule && (d.line == f.line || d.line + 1 == f.line));
        match suppressed {
            Some(d) => d.used = true,
            None => findings.push(f),
        }
    }
    findings.extend(malformed);
    FileScan {
        findings,
        directives,
    }
}

/// Everything a workspace scan produced, before exit-code policy.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by `(path, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
    /// Count of findings suppressed by in-source directives (for the
    /// summary line).
    pub suppressed: usize,
}

/// Walk the workspace at `root` and run every rule. `self_check`
/// additionally reports directives that no longer suppress anything
/// (rule D010) so they cannot rot.
pub fn scan_workspace(root: &Path, self_check: bool) -> Result<Report, String> {
    let mut files = Vec::new();
    for dir in ["crates", "xtests", "examples", "tests"] {
        collect_rs_files(&root.join(dir), root, &mut files)?;
    }
    files.sort();
    scan_files(root, &files, self_check)
}

/// Scan an explicit list of workspace-relative `.rs` paths.
pub fn scan_files(root: &Path, rel_paths: &[String], self_check: bool) -> Result<Report, String> {
    let mut report = Report::default();
    for rel in rel_paths {
        let source = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let scan = scan_file(rel, &source, &classify(rel));
        report.files += 1;
        report.suppressed += scan.directives.iter().filter(|d| d.used).count();
        report.findings.extend(scan.findings);
        if self_check {
            for d in scan.directives.iter().filter(|d| !d.used) {
                report.findings.push(Finding {
                    rule: "D010",
                    path: rel.clone(),
                    line: d.line,
                    col: d.col,
                    message: format!(
                        "unused directive: nothing on this or the next line triggers \
                         {} any more — remove the allow",
                        d.rule
                    ),
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// Recursively collect workspace-relative `.rs` paths under `dir`,
/// skipping build output, vendored stand-ins, and detlint's own lint
/// fixtures (which violate rules on purpose).
fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            let rel = rel_path(&path, root);
            if rel.starts_with("crates/detlint/tests/fixtures") {
                continue;
            }
            collect_rs_files(&path, root, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_path(&path, root));
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_class() -> FileClass {
        classify("crates/sim/src/fake.rs")
    }

    /// A float accumulator declared on line 1, with `extra` between the
    /// declaration and the `+=` that D004 flags.
    fn accumulation(extra: &str) -> String {
        format!("let mut acc = 0.0;\n{extra}acc += x;")
    }

    #[test]
    fn inline_directive_suppresses_same_and_next_line() {
        let trailing = accumulation("") + " // detlint: allow(D004) -- fixed order\n";
        let scan = scan_file("crates/sim/src/x.rs", &trailing, &golden_class());
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        assert!(scan.directives[0].used);

        let standalone = accumulation("// detlint: allow(D004) -- fixed order\n");
        let scan = scan_file("crates/sim/src/x.rs", &standalone, &golden_class());
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);

        let far = accumulation("// detlint: allow(D004) -- fixed order\n\n");
        let scan = scan_file("crates/sim/src/x.rs", &far, &golden_class());
        assert_eq!(
            scan.findings.len(),
            1,
            "directive must not act at a distance"
        );
        assert!(!scan.directives[0].used);
    }

    #[test]
    fn malformed_directives_are_their_own_finding() {
        for bad in [
            "// detlint: allow(D004)\n",            // no reason
            "// detlint: allow(D999) -- reason\n",  // unknown rule
            "// detlint: allow(D001) -- reason\n",  // retired rule
            "// detlint: permit(D004) -- reason\n", // wrong verb
        ] {
            let scan = scan_file("crates/sim/src/x.rs", bad, &golden_class());
            assert_eq!(scan.findings.len(), 1, "{bad:?}");
            assert_eq!(scan.findings[0].rule, "D010", "{bad:?}");
        }
    }

    #[test]
    fn directive_for_a_different_rule_does_not_suppress() {
        let src = accumulation("") + " // detlint: allow(D006) -- wrong code\n";
        let scan = scan_file("crates/sim/src/x.rs", &src, &golden_class());
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].rule, "D004");
    }
}
