//! The detlint rule catalog (D004, D006, D010) and the token-level
//! passes that implement it.
//!
//! Every rule reports span-accurate findings (`file:line:col`) against
//! the lexed token stream from [`crate::lexer`], plus two cheap
//! structural passes: brace-matched `#[cfg(test)]` module regions and
//! `fn` body spans. See `docs/detlint.md` for the full catalog with
//! fix-it examples, and for where the retired codes are checked now.

use crate::lexer::{Comment, Lexed, Tok, Token};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`D004`…).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule code (`D004`…).
    pub code: &'static str,
    /// Short name (kebab case).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog. The missing codes are retired: D007 with the
/// experiment registry, the others to clippy, `[workspace.lints]` and
/// exhaustive destructuring (`docs/detlint.md` says where each lives).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D004",
        name: "float-accumulation",
        summary: "floating-point accumulation (+= or .sum::<f32/f64>()) in a \
                  golden-affecting crate: association order changes the result; \
                  use integers or document the fixed order with an allow",
    },
    RuleInfo {
        code: "D006",
        name: "undocumented-sync-site",
        summary: "a fence()/amo_release() call site in crates/core or crates/sim \
                  lacks the adjacent `// Invariant:` comment explaining what the \
                  ordering protects",
    },
    RuleInfo {
        code: "D010",
        name: "stale-allowance",
        summary: "a detlint directive that does nothing: malformed (unknown rule \
                  code or no reason), or suppressing nothing (--self-check)",
    },
];

/// Look up a rule by code.
pub fn rule_info(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// How a file participates in the rule set, derived from its
/// workspace-relative path (see [`classify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Crate whose behaviour feeds golden numbers (sim, core, mem,
    /// mesh, prof, workloads, chaos, model): D004 applies.
    pub golden_affecting: bool,
    /// Crate whose fence/AMO sync sites must carry invariant comments
    /// (core, sim): D006 applies.
    pub sync_documented: bool,
}

/// Crates whose behaviour determines golden numbers. `model` is on
/// the list because analytic answers are cached and diffed like any
/// other payload: the estimator must be exactly reproducible, so float
/// accumulation binds it the same as the cycle engine.
pub const GOLDEN_CRATES: &[&str] = &[
    "sim",
    "core",
    "mem",
    "mesh",
    "prof",
    "workloads",
    "chaos",
    "model",
];

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let Some(rest) = path.strip_prefix("crates/") else {
        return FileClass::default();
    };
    let krate = rest.split('/').next().unwrap_or("");
    FileClass {
        golden_affecting: GOLDEN_CRATES.contains(&krate),
        // Integration-test files exercise sync sites without making
        // ordering decisions; only library code needs the invariant
        // comments (in-crate #[cfg(test)] mods are handled per-region).
        sync_documented: (krate == "core" || krate == "sim") && !rest.contains("/tests/"),
    }
}

/// A line range (1-based, inclusive) of a `#[cfg(test)] mod` body or a
/// `fn` body.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// First line.
    pub start: u32,
    /// Last line.
    pub end: u32,
}

/// Structural facts shared by several rules.
pub struct Structure {
    /// `#[cfg(test)] mod` body regions.
    pub test_regions: Vec<Region>,
    /// `(name, region)` for every `fn` with a body.
    pub fns: Vec<(String, Region)>,
}

impl Structure {
    /// Whether `line` falls inside a `#[cfg(test)]` module.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|r| r.start <= line && line <= r.end)
    }

    /// Name of the innermost `fn` whose body contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&str> {
        self.fns
            .iter()
            .filter(|(_, r)| r.start <= line && line <= r.end)
            .min_by_key(|(_, r)| r.end - r.start)
            .map(|(n, _)| n.as_str())
    }
}

/// Index of the token matching the `{` at `open` (or the last token if
/// unbalanced).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.tok.is_punct('{') {
            depth += 1;
        } else if t.tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Compute [`Structure`] for a lexed file.
pub fn structure(lexed: &Lexed) -> Structure {
    let tokens = &lexed.tokens;
    let mut test_regions = Vec::new();
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // #[cfg(test)] … mod name { … }
        if tokens[i].tok.is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.tok.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.tok.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.tok.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.tok.is_punct(')'))
            && tokens.get(i + 6).is_some_and(|t| t.tok.is_punct(']'))
        {
            let mut j = i + 7;
            // Skip any further attributes between cfg(test) and `mod`.
            while tokens.get(j).is_some_and(|t| t.tok.is_punct('#')) {
                let mut depth = 0usize;
                while let Some(t) = tokens.get(j) {
                    if t.tok.is_punct('[') {
                        depth += 1;
                    } else if t.tok.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if tokens.get(j).is_some_and(|t| t.tok.is_ident("mod")) {
                // mod name { … }
                let mut k = j + 1;
                while let Some(t) = tokens.get(k) {
                    if t.tok.is_punct('{') {
                        let close = match_brace(tokens, k);
                        test_regions.push(Region {
                            start: tokens[k].line,
                            end: tokens[close].line,
                        });
                        break;
                    }
                    if t.tok.is_punct(';') {
                        break;
                    }
                    k += 1;
                }
            }
            i += 7;
            continue;
        }
        // fn name … { … }
        if tokens[i].tok.is_ident("fn") {
            if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                let mut paren = 0i32;
                let mut k = i + 2;
                while let Some(t) = tokens.get(k) {
                    match &t.tok {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct(';') if paren == 0 => break, // trait decl, no body
                        Tok::Punct('{') if paren == 0 => {
                            let close = match_brace(tokens, k);
                            fns.push((
                                name.clone(),
                                Region {
                                    start: tokens[k].line,
                                    end: tokens[close].line,
                                },
                            ));
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    Structure { test_regions, fns }
}

/// Whether any comment containing `marker` ends within `window` lines
/// at or above `line`.
fn comment_above(comments: &[Comment], marker: &str, line: u32, window: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains(marker) && c.end_line <= line && c.end_line + window >= line)
}

/// Run every per-file rule that applies under `class` and return raw
/// (un-suppressed) findings; [`crate::scan_file`] applies the
/// directives.
pub fn per_file_rules(path: &str, lexed: &Lexed, class: &FileClass) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let comments = &lexed.comments;
    let st = structure(lexed);
    let mut out = Vec::new();
    let finding = |rule: &'static str, t: &Token, message: String| Finding {
        rule,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
    };

    // Collected once for D004.
    let float_names = if class.golden_affecting {
        float_typed_names(tokens)
    } else {
        Vec::new()
    };

    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            // D004 — float accumulation in golden-affecting crates.
            Tok::Op(op) if class.golden_affecting && (*op == "+=" || *op == "-=") => {
                if let Some(name) = accumulation_target(tokens, i) {
                    if float_names.iter().any(|f| f == name) {
                        out.push(finding(
                            "D004",
                            t,
                            format!(
                                "float accumulation into `{name}`: addition order \
                                 changes the result in the last bits; accumulate in \
                                 integers, fix the iteration order, or allow with a \
                                 written order argument"
                            ),
                        ));
                    }
                }
            }
            // .sum::<f64>() / .sum::<f32>()
            Tok::Ident(id)
                if class.golden_affecting
                    && id == "sum"
                    && i >= 1
                    && tokens[i - 1].tok.is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.tok.is_op("::"))
                    && tokens.get(i + 2).is_some_and(|n| n.tok.is_punct('<'))
                    && tokens
                        .get(i + 3)
                        .is_some_and(|n| n.tok.is_ident("f64") || n.tok.is_ident("f32")) =>
            {
                out.push(finding(
                    "D004",
                    t,
                    "float .sum() in a golden-affecting crate: summation order \
                     changes the result in the last bits; sum integers or allow \
                     with a written order argument"
                        .to_string(),
                ));
            }
            // D006 — undocumented sync sites in core/sim.
            Tok::Ident(id) if class.sync_documented && (id == "fence" || id == "amo_release") => {
                let is_method_call = i >= 1
                    && tokens[i - 1].tok.is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.tok.is_punct('('));
                if is_method_call && !st.in_test(t.line) {
                    // A wrapper like `fn fence(&mut self) { self.api.fence() }`
                    // is delegation, not a sync decision — the invariant
                    // lives at the real call sites.
                    let delegation = st.enclosing_fn(t.line) == Some(id.as_str());
                    if !delegation && !comment_above(comments, "Invariant", t.line, 10) {
                        out.push(finding(
                            "D006",
                            t,
                            format!(
                                "{id}() without an adjacent `// Invariant:` comment: \
                                 every sync site must say what ordering it \
                                 establishes and which reader depends on it"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Names declared with a floating-point type (or float-literal
/// initializer) anywhere in the file: `let x: f64`, `let mut x = 0.0`,
/// struct fields / fn args `x: f64`, `sum: Vec<f64>`.
fn float_typed_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        let Tok::Ident(name) = &tokens[i].tok else {
            continue;
        };
        if name == "let" || name == "mut" {
            continue;
        }
        // `name : … f32/f64 …` up to a delimiter.
        if tokens.get(i + 1).is_some_and(|t| t.tok.is_punct(':')) {
            let mut j = i + 2;
            let mut steps = 0;
            while let Some(t) = tokens.get(j) {
                if steps > 24
                    || t.tok.is_punct(',')
                    || t.tok.is_punct(';')
                    || t.tok.is_punct('=')
                    || t.tok.is_punct(')')
                    || t.tok.is_punct('{')
                {
                    break;
                }
                if t.tok.is_ident("f32") || t.tok.is_ident("f64") {
                    names.push(name.clone());
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
        // `let [mut] name = <float literal>`
        let let_decl = (i >= 1 && tokens[i - 1].tok.is_ident("let"))
            || (i >= 2 && tokens[i - 1].tok.is_ident("mut") && tokens[i - 2].tok.is_ident("let"));
        if let_decl && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('=')) {
            let mut j = i + 2;
            if tokens.get(j).is_some_and(|t| t.tok.is_punct('-')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.tok.is_float_literal()) {
                names.push(name.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// The identifier being accumulated into by the `+=`/`-=` at `op_idx`:
/// handles `x +=`, `self.x +=`, and `x[i] +=` / `self.x[i] +=`.
fn accumulation_target(tokens: &[Token], op_idx: usize) -> Option<&str> {
    let mut i = op_idx.checked_sub(1)?;
    if tokens[i].tok.is_punct(']') {
        // Walk back over the index expression to its `[`.
        let mut depth = 0usize;
        loop {
            match tokens[i].tok {
                Tok::Punct(']') => depth += 1,
                Tok::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i = i.checked_sub(1)?;
        }
        i = i.checked_sub(1)?;
    }
    tokens[i].tok.ident()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classify_knows_the_crate_map() {
        assert!(classify("crates/sim/src/engine.rs").golden_affecting);
        assert!(classify("crates/core/src/worker.rs").sync_documented);
        assert!(!classify("crates/sim/tests/engine_semantics.rs").sync_documented);
        assert!(classify("crates/sim/tests/engine_semantics.rs").golden_affecting);
        assert!(classify("crates/model/src/estimate.rs").golden_affecting);
        assert_eq!(classify("crates/bench/src/cli.rs"), FileClass::default());
        assert_eq!(classify("crates/san/src/lib.rs"), FileClass::default());
        assert_eq!(classify("tests/determinism.rs"), FileClass::default());
    }

    #[test]
    fn structure_finds_test_mods_and_fns() {
        let src = r#"
fn outer() {
    fn inner() { work(); }
}
#[cfg(test)]
mod tests {
    #[test]
    fn case() { assert!(true); }
}
"#;
        let st = structure(&lex(src));
        assert_eq!(st.fns.len(), 3);
        assert!(st.in_test(8));
        assert!(!st.in_test(3));
        assert_eq!(st.enclosing_fn(3), Some("inner"));
    }
}
