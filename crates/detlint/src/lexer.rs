//! A hand-rolled Rust lexer: just enough token structure for the
//! detlint rules, with exact line/column spans.
//!
//! The lexer understands everything that could make a naive
//! substring scan lie about source positions or token identity:
//! line/block comments (nested), doc comments, string / raw-string /
//! byte-string / char literals, lifetimes vs. char literals, numeric
//! literals (including float forms), and maximal-munch compound
//! operators (`::`, `+=`, `->`, …). It deliberately does **not**
//! build a syntax tree — the rules in [`crate::rules`] are written
//! against the token stream plus a few cheap structural passes
//! (brace-matched regions for `#[cfg(test)]` modules and `fn` bodies).

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `f64`, `sum`, …).
    Ident(String),
    /// A string literal (cooked, raw, or byte), contents unexamined:
    /// lexing it only keeps its text out of the identifier stream.
    Str,
    /// A character or byte literal (contents unexamined).
    Char,
    /// A numeric literal, original spelling preserved (so rules can
    /// recognize float forms like `0.0`, `1e9`, `2f64`).
    Num(String),
    /// A lifetime such as `'a` (or the loop-label form `'outer`).
    Lifetime,
    /// A multi-character operator from a fixed set (`::`, `+=`, `-=`,
    /// `*=`, `/=`, `%=`, `->`, `=>`, `==`, `!=`, `<=`, `>=`, `&&`,
    /// `||`, `..`, `<<`, `>>`).
    Op(&'static str),
    /// Any other single punctuation character.
    Punct(char),
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind and payload.
    pub tok: Tok,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// A comment (line, block, or doc), kept out of the token stream but
/// preserved for the comment-driven rules (`// Invariant:` comments and
/// `detlint: allow` directives).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// 1-based first line.
    pub line: u32,
    /// 1-based last line (equals `line` for line comments).
    pub end_line: u32,
    /// 1-based column of the opening marker.
    pub col: u32,
}

/// Lexer output: code tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Compound operators recognized by maximal munch, longest first.
const OPS: &[&str] = &[
    "::", "+=", "-=", "*=", "/=", "%=", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>",
];

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `source` into tokens and comments. Never fails: malformed
/// input degrades to punctuation tokens rather than aborting, so a
/// half-edited file still gets best-effort diagnostics.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            let trimmed = text.trim_start_matches('/').trim_start_matches('!');
            out.comments.push(Comment {
                text: trimmed.to_string(),
                line,
                end_line: line,
                col,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut text = String::new();
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(ch), _) => {
                        text.push(ch);
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            out.comments.push(Comment {
                text,
                line,
                end_line: cur.line,
                col,
            });
            continue;
        }
        // Raw strings: r"..." / r#"..."# (with b prefix variants).
        if (c == 'r' || c == 'b') && is_raw_string_start(&cur) {
            let consumed_to = raw_string_end(&cur);
            while cur.i < consumed_to {
                cur.bump();
            }
            out.tokens.push(Token {
                tok: Tok::Str,
                line,
                col,
            });
            continue;
        }
        // Byte string b"..." / byte char b'x'.
        if c == 'b' && matches!(cur.peek(1), Some('"') | Some('\'')) {
            cur.bump(); // consume the b; fall through via the quote char
            let q = cur.peek(0).unwrap_or('"');
            let tok = lex_quoted(&mut cur, q);
            out.tokens.push(Token { tok, line, col });
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut s = String::new();
            while let Some(ch) = cur.peek(0) {
                if is_ident_continue(ch) {
                    s.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                tok: Tok::Ident(s),
                line,
                col,
            });
            continue;
        }
        // Numbers (including float forms; suffix letters are folded in).
        if c.is_ascii_digit() {
            let mut s = String::new();
            let mut seen_dot = false;
            while let Some(ch) = cur.peek(0) {
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    s.push(ch);
                    cur.bump();
                } else if ch == '.'
                    && !seen_dot
                    && cur.peek(1) != Some('.')
                    && !cur.peek(1).is_some_and(is_ident_start)
                {
                    // `1..n` is a range and `1.max(2)` a method call;
                    // `1.0` (and trailing `1.`) are floats. One dot max.
                    seen_dot = true;
                    s.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                tok: Tok::Num(s),
                line,
                col,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            let tok = lex_quoted(&mut cur, '"');
            out.tokens.push(Token { tok, line, col });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = cur.peek(1);
            let is_char = match next {
                Some('\\') => true,
                Some(ch) if is_ident_start(ch) => cur.peek(2) == Some('\''),
                Some(_) => true,
                None => false,
            };
            if is_char {
                let tok = lex_quoted(&mut cur, '\'');
                out.tokens.push(Token { tok, line, col });
            } else {
                cur.bump(); // '
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    tok: Tok::Lifetime,
                    line,
                    col,
                });
            }
            continue;
        }
        // Compound operators (maximal munch over the fixed set).
        let mut matched = None;
        for op in OPS {
            let mut ok = true;
            for (k, oc) in op.chars().enumerate() {
                if cur.peek(k) != Some(oc) {
                    ok = false;
                    break;
                }
            }
            if ok {
                matched = Some(*op);
                break;
            }
        }
        if let Some(op) = matched {
            for _ in 0..op.len() {
                cur.bump();
            }
            out.tokens.push(Token {
                tok: Tok::Op(op),
                line,
                col,
            });
            continue;
        }
        // Anything else: single punctuation char.
        cur.bump();
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
            col,
        });
    }
    out
}

/// Is the cursor at `r"`/`r#"` or `br"`/`br#"`?
fn is_raw_string_start(cur: &Cursor) -> bool {
    let mut j = 0;
    if cur.peek(0) == Some('b') {
        j = 1;
    }
    if cur.peek(j) != Some('r') {
        return false;
    }
    j += 1;
    loop {
        match cur.peek(j) {
            Some('#') => j += 1,
            Some('"') => return true,
            _ => return false,
        }
    }
}

/// The char index just past the closing delimiter of the raw string
/// starting at the cursor (or the end of input, if unterminated).
fn raw_string_end(cur: &Cursor) -> usize {
    let mut j = cur.i;
    if cur.chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // r
    let mut hashes = 0;
    while cur.chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    loop {
        match cur.chars.get(j) {
            None => return j,
            Some('"') => {
                let mut k = j + 1;
                let mut seen = 0;
                while seen < hashes && cur.chars.get(k) == Some(&'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
                j += 1;
            }
            Some(_) => j += 1,
        }
    }
}

/// Lex a quoted literal (string or char) starting at the opening
/// quote, skipping escapes.
fn lex_quoted(cur: &mut Cursor, quote: char) -> Tok {
    cur.bump(); // opening quote
    while let Some(ch) = cur.peek(0) {
        cur.bump();
        if ch == '\\' {
            cur.bump();
        } else if ch == quote {
            break;
        }
    }
    if quote == '\'' {
        Tok::Char
    } else {
        Tok::Str
    }
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// True if this token is the compound operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(self, Tok::Op(o) if *o == op)
    }

    /// True for numeric literals spelled as floats (`1.0`, `2e8`,
    /// `3f32`, `4f64`) — integer literals return false.
    pub fn is_float_literal(&self) -> bool {
        match self {
            Tok::Num(s) => {
                s.contains('.')
                    || s.ends_with("f32")
                    || s.ends_with("f64")
                    || (s.contains(['e', 'E'])
                        && !s.starts_with("0x")
                        && !s.starts_with("0X")
                        && !s.starts_with("0b"))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.tok.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"BTreeMap".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime))
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let lexed = lex("a\n  bc\n");
        assert_eq!(lexed.tokens[0].line, 1);
        assert_eq!(lexed.tokens[0].col, 1);
        assert_eq!(lexed.tokens[1].line, 2);
        assert_eq!(lexed.tokens[1].col, 3);
    }

    #[test]
    fn compound_ops_munch_maximally() {
        let lexed = lex("a += b::c;");
        assert!(lexed.tokens.iter().any(|t| t.tok.is_op("+=")));
        assert!(lexed.tokens.iter().any(|t| t.tok.is_op("::")));
    }

    #[test]
    fn float_literal_detection() {
        assert!(lex("0.5").tokens[0].tok.is_float_literal());
        assert!(lex("1f64").tokens[0].tok.is_float_literal());
        assert!(!lex("42").tokens[0].tok.is_float_literal());
        assert!(!lex("0xep").tokens[0].tok.is_float_literal());
    }

    #[test]
    fn method_call_on_int_literal_is_not_a_float() {
        let lexed = lex("1.max(2)");
        assert_eq!(lexed.tokens[0].tok, Tok::Num("1".into()));
        assert!(lexed.tokens.iter().any(|t| t.tok.is_ident("max")));
    }
}
