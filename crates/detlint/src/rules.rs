//! The detlint rule catalog (D001…D010) and the token-level passes
//! that implement it.
//!
//! Every rule reports span-accurate findings (`file:line:col`) against
//! the lexed token stream from [`crate::lexer`], plus two cheap
//! structural passes: brace-matched `#[cfg(test)]` module regions and
//! `fn` body spans. See `docs/detlint.md` for the full catalog with
//! fix-it examples.

use crate::config::DigestEntry;
use crate::lexer::{Comment, Lexed, Tok, Token};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`D001`…).
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
    /// Rule code (`D001`…).
    pub code: &'static str,
    /// Short name (kebab case).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D001",
        name: "unordered-container",
        summary: "HashMap/HashSet in a golden-affecting crate: iteration order is \
                  host-random; use BTreeMap/BTreeSet or sorted iteration, or allow \
                  with a written justification",
    },
    RuleInfo {
        code: "D002",
        name: "wall-clock",
        summary: "Instant/SystemTime outside the host-side crates (bench, serve): \
                  wall-clock time must never influence simulated state",
    },
    RuleInfo {
        code: "D003",
        name: "ambient-host-state",
        summary: "std::env reads or thread::current() in a golden-affecting crate: \
                  environment and host-thread identity must not influence simulation",
    },
    RuleInfo {
        code: "D004",
        name: "float-accumulation",
        summary: "floating-point accumulation (+= or .sum::<f32/f64>()) in a \
                  golden-affecting crate: association order changes the result; \
                  use integers or document the fixed order with an allow",
    },
    RuleInfo {
        code: "D005",
        name: "digest-coverage",
        summary: "a field of a digest-tracked struct (JobSpec/MachineConfig/FaultPlan) \
                  is neither serialized by the canonical serializer nor on the \
                  exemption list: new knobs must not silently alias cache entries",
    },
    RuleInfo {
        code: "D006",
        name: "undocumented-sync-site",
        summary: "a fence()/amo_release() call site in crates/core or crates/sim \
                  lacks the adjacent `// Invariant:` comment explaining what the \
                  ordering protects",
    },
    RuleInfo {
        code: "D008",
        name: "undocumented-unsafe",
        summary: "`unsafe` without an adjacent `// SAFETY:` comment",
    },
    RuleInfo {
        code: "D009",
        name: "allow-without-reason",
        summary: "#[allow(...)] without an adjacent `//` reason comment",
    },
    RuleInfo {
        code: "D010",
        name: "stale-allowance",
        summary: "a detlint allowance that no longer does anything: malformed \
                  directive, unused directive/allowlist entry (--self-check), or a \
                  digest exemption that names a missing or already-covered field",
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
    /// mesh, prof, workloads, chaos, model): D001/D003/D004 apply.
    pub golden_affecting: bool,
    /// Host-side crate (bench, serve, detlint) or workspace test /
    /// example code: wall-clock use is fine (D002 does not apply).
    pub host_side: bool,
    /// Crate whose fence/AMO sync sites must carry invariant comments
    /// (core, sim): D006 applies.
    pub sync_documented: bool,
}

/// Crates whose behaviour determines golden numbers. `model` is on
/// the list because analytic answers are cached and diffed like any
/// other payload: the estimator must be exactly reproducible, so the
/// determinism rules (no hash iteration, no floats, no ambient host
/// state) bind it the same as the cycle engine.
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

/// Host-side crates where wall-clock time is legitimate.
pub const HOST_CRATES: &[&str] = &["bench", "serve", "detlint"];

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let mut class = FileClass::default();
    if let Some(rest) = path.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("");
        class.golden_affecting = GOLDEN_CRATES.contains(&krate);
        class.host_side = HOST_CRATES.contains(&krate);
        // Integration-test files exercise sync sites without making
        // ordering decisions; only library code needs the invariant
        // comments (in-crate #[cfg(test)] mods are handled per-region).
        class.sync_documented = (krate == "core" || krate == "sim") && !rest.contains("/tests/");
    } else if path.starts_with("xtests/")
        || path.starts_with("examples/")
        || path.starts_with("tests/")
    {
        class.host_side = true;
    }
    class
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
/// (un-suppressed) findings. Directive/allowlist filtering happens in
/// the driver ([`crate::scan_file`]).
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
            // D001 — unordered containers in golden-affecting crates.
            Tok::Ident(id) if class.golden_affecting && (id == "HashMap" || id == "HashSet") => {
                out.push(finding(
                    "D001",
                    t,
                    format!(
                        "{id} in a golden-affecting crate: iteration order is randomized \
                         per-process and can leak into golden numbers; use BTree{} or \
                         sorted iteration, or add `// detlint: allow(D001) -- <why>`",
                        if id == "HashMap" { "Map" } else { "Set" }
                    ),
                ));
            }
            // D002 — wall-clock types outside host-side crates.
            Tok::Ident(id) if !class.host_side && (id == "Instant" || id == "SystemTime") => {
                out.push(finding(
                    "D002",
                    t,
                    format!(
                        "{id} outside a host-side crate: wall-clock time must never \
                         influence simulated state (move timing to crates/bench or \
                         crates/serve, or allow with a reason)"
                    ),
                ));
            }
            // D003 — ambient host state in golden-affecting crates.
            Tok::Ident(id) if class.golden_affecting && id == "env" => {
                let from_std =
                    i >= 2 && tokens[i - 1].tok.is_op("::") && tokens[i - 2].tok.is_ident("std");
                let reads = tokens.get(i + 1).is_some_and(|n| n.tok.is_op("::"))
                    && tokens.get(i + 2).is_some_and(|n| {
                        ["var", "vars", "var_os", "vars_os", "args", "args_os"]
                            .iter()
                            .any(|m| n.tok.is_ident(m))
                    });
                if from_std || reads {
                    out.push(finding(
                        "D003",
                        t,
                        "std::env read in a golden-affecting crate: the simulation \
                         must be a pure function of MachineConfig + inputs, not of \
                         the host environment"
                            .to_string(),
                    ));
                }
            }
            Tok::Ident(id)
                if class.golden_affecting
                    && id == "current"
                    && i >= 2
                    && tokens[i - 1].tok.is_op("::")
                    && tokens[i - 2].tok.is_ident("thread") =>
            {
                out.push(finding(
                    "D003",
                    t,
                    "thread::current() in a golden-affecting crate: host-thread \
                     identity is scheduling-dependent and must not influence \
                     simulation (the window-parallel engine varies it freely)"
                        .to_string(),
                ));
            }
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
            // D008 — undocumented unsafe.
            Tok::Ident(id) if id == "unsafe" && !comment_above(comments, "SAFETY", t.line, 3) => {
                out.push(finding(
                    "D008",
                    t,
                    "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                ));
            }
            // D009 — #[allow(…)] without a reason comment.
            Tok::Ident(id) if id == "allow" => {
                let attr = (i >= 2
                    && tokens[i - 1].tok.is_punct('[')
                    && (tokens[i - 2].tok.is_punct('#') || tokens[i - 2].tok.is_punct('!')))
                    && tokens.get(i + 1).is_some_and(|n| n.tok.is_punct('('));
                if attr {
                    let has_reason = comments.iter().any(|c| {
                        !c.doc
                            && !c.text.trim().is_empty()
                            && (c.end_line + 1 == t.line || c.line == t.line)
                    });
                    if !has_reason {
                        out.push(finding(
                            "D009",
                            t,
                            "#[allow(...)] without a reason: add a trailing or \
                             preceding `//` comment saying why the lint is wrong here"
                                .to_string(),
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

// ---------------------------------------------------------------------------
// D005 — digest coverage
// ---------------------------------------------------------------------------

/// A struct field with its declaration site.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
}

/// Extract the named struct's field list from a lexed file.
pub fn struct_fields(lexed: &Lexed, struct_name: &str) -> Option<Vec<FieldDecl>> {
    let tokens = &lexed.tokens;
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].tok.is_ident("struct") && tokens[i + 1].tok.is_ident(struct_name) {
            // Find the body `{` (skipping generics); `;` means a unit
            // or tuple struct — no named fields.
            let mut j = i + 2;
            while let Some(t) = tokens.get(j) {
                if t.tok.is_punct('{') {
                    return Some(fields_in_body(tokens, j));
                }
                if t.tok.is_punct(';') || t.tok.is_punct('(') {
                    return Some(Vec::new());
                }
                j += 1;
            }
            return Some(Vec::new());
        }
        i += 1;
    }
    None
}

/// Fields at depth 1 of the brace body opening at `open`.
fn fields_in_body(tokens: &[Token], open: usize) -> Vec<FieldDecl> {
    let close = match_brace(tokens, open);
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        // Skip attributes.
        if t.tok.is_punct('#') {
            let mut depth = 0usize;
            while i < close {
                if tokens[i].tok.is_punct('[') {
                    depth += 1;
                } else if tokens[i].tok.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        // Skip visibility.
        if t.tok.is_ident("pub") {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.tok.is_punct('(')) {
                while i < close && !tokens[i].tok.is_punct(')') {
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        // A field: ident `:` type…,
        if let Tok::Ident(name) = &t.tok {
            if tokens.get(i + 1).is_some_and(|n| n.tok.is_punct(':')) {
                fields.push(FieldDecl {
                    name: name.clone(),
                    line: t.line,
                    col: t.col,
                });
                // Skip the type to the field-separating comma at depth 0
                // (angle brackets and parens both nest). The lexer
                // fuses `>>`/`<<` into shift operators, which in type
                // position are really two nested angle closes — e.g.
                // `Option<Box<T>>` — so they count double here.
                let mut angle = 0i32;
                let mut paren = 0i32;
                let mut j = i + 2;
                while j < close {
                    match tokens[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Op("<<") => angle += 2,
                        Tok::Op(">>") => angle -= 2,
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct(',') if angle <= 0 && paren <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    fields
}

/// All string literals inside the body of `fn name`.
pub fn fn_string_literals(lexed: &Lexed, name: &str) -> Option<Vec<String>> {
    let tokens = &lexed.tokens;
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].tok.is_ident("fn") && tokens[i + 1].tok.is_ident(name) {
            let mut paren = 0i32;
            let mut j = i + 2;
            while let Some(t) = tokens.get(j) {
                match &t.tok {
                    Tok::Punct('(') => paren += 1,
                    Tok::Punct(')') => paren -= 1,
                    Tok::Punct(';') if paren == 0 => return None,
                    Tok::Punct('{') if paren == 0 => {
                        let close = match_brace(tokens, j);
                        return Some(
                            tokens[j..=close]
                                .iter()
                                .filter_map(|t| match &t.tok {
                                    Tok::Str(s) => Some(s.clone()),
                                    _ => None,
                                })
                                .collect(),
                        );
                    }
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// True when `literal` mentions `word` with non-identifier characters
/// (or the string boundary) on both sides — so the field `seed` is
/// covered by `"seed"` and by `"seed={}"`, but `freeze` is not covered
/// by `"unfreeze"` and `flips` is not covered by `"flip="`.
fn contains_word(literal: &str, word: &str) -> bool {
    let bytes = literal.as_bytes();
    let w = word.as_bytes();
    if w.is_empty() || bytes.len() < w.len() {
        return false;
    }
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    for start in 0..=(bytes.len() - w.len()) {
        if &bytes[start..start + w.len()] == w {
            let before_ok = start == 0 || !is_ident(bytes[start - 1]);
            let after = start + w.len();
            let after_ok = after == bytes.len() || !is_ident(bytes[after]);
            if before_ok && after_ok {
                return true;
            }
        }
    }
    false
}

/// D005: check one digest-tracked struct against its canonical
/// serializer. `struct_lexed`/`ser_lexed` are the lexed declaration
/// and serializer files (which may be the same file).
pub fn digest_rule(entry: &DigestEntry, struct_lexed: &Lexed, ser_lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(fields) = struct_fields(struct_lexed, &entry.struct_name) else {
        out.push(Finding {
            rule: "D005",
            path: entry.file.clone(),
            line: 1,
            col: 1,
            message: format!(
                "digest-tracked struct `{}` not found in {} — fix detlint.toml so \
                 digest coverage cannot silently stop checking",
                entry.struct_name, entry.file
            ),
        });
        return out;
    };
    let Some(literals) = fn_string_literals(ser_lexed, &entry.serializer) else {
        out.push(Finding {
            rule: "D005",
            path: entry.serializer_file.clone(),
            line: 1,
            col: 1,
            message: format!(
                "canonical serializer fn `{}` not found in {} — fix detlint.toml so \
                 digest coverage cannot silently stop checking",
                entry.serializer, entry.serializer_file
            ),
        });
        return out;
    };
    let alias = |field: &str| -> String {
        entry
            .map
            .iter()
            .find(|(f, _)| f == field)
            .map(|(_, a)| a.clone())
            .unwrap_or_else(|| field.to_string())
    };
    for f in &fields {
        let token = alias(&f.name);
        let covered = literals.iter().any(|l| contains_word(l, &token));
        let exempted = entry.exempt.iter().any(|(n, _)| n == &f.name);
        if exempted && covered {
            out.push(Finding {
                rule: "D010",
                path: entry.file.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "`{}.{}` is on the digest exemption list but `{}` serializes it — \
                     remove the stale exemption",
                    entry.struct_name, f.name, entry.serializer
                ),
            });
        } else if !exempted && !covered {
            out.push(Finding {
                rule: "D005",
                path: entry.file.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "`{}.{}` is neither serialized by `{}` nor on the exemption list: \
                     a knob outside the digest silently aliases cache entries — digest \
                     it, or exempt it in detlint.toml with a reason",
                    entry.struct_name, f.name, entry.serializer
                ),
            });
        }
    }
    // Exemptions must name real fields, or the list rots.
    for (name, _) in &entry.exempt {
        if !fields.iter().any(|f| &f.name == name) {
            out.push(Finding {
                rule: "D010",
                path: entry.file.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "digest exemption names `{}.{name}`, which is not a field of the \
                     struct — remove or fix the entry",
                    entry.struct_name
                ),
            });
        }
    }
    out
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
        assert!(!classify("crates/model/src/estimate.rs").host_side);
        assert!(classify("crates/bench/src/cli.rs").host_side);
        assert!(!classify("crates/san/src/lib.rs").golden_affecting);
        assert!(!classify("crates/san/src/lib.rs").host_side);
        assert!(classify("tests/determinism.rs").host_side);
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("seed={}", "seed"));
        assert!(contains_word("seed", "seed"));
        assert!(contains_word("a,seed=3", "seed"));
        assert!(!contains_word("unfreeze", "freeze"));
        assert!(!contains_word("flip=", "flips"));
        assert!(!contains_word("seeded", "seed"));
    }

    #[test]
    fn struct_fields_survive_fused_shift_tokens_in_types() {
        // `Option<Box<T>>` ends in a `>>` the lexer fuses into one
        // shift token; the angle-depth tracker must count it as two
        // closes or every field after it silently vanishes from D005.
        let src = r#"
struct M {
    config: Config,
    sanitizer: Option<Box<Sanitizer>>,
    profiler: Option<ProfSink>,
    faults: Option<FaultState>,
}
"#;
        let fields: Vec<String> = struct_fields(&lex(src), "M")
            .expect("struct found")
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(fields, ["config", "sanitizer", "profiler", "faults"]);
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
