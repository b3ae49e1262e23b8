//! A minimal Rust lexer for the lint pass — just enough token structure to
//! pattern-match rule violations without a real parser, while never being
//! fooled by comments, string/char literals, or lifetimes.
//!
//! The lexer also harvests `// lint: allow(rule-name)` directives from
//! comments. A trailing allow suppresses its rule on its own line only; a
//! standalone allow (comment-only line) covers the *statement or block*
//! that starts on the next code line — through its terminating `;` or the
//! matching close brace — and nothing beyond it (see
//! `docs/verification.md`).
//!
//! The collective-schedule checker's one directive rides the same
//! channel (see `docs/static-analysis.md`): `// schedule: replicated`
//! asserts a binding, branch or loop condition is rank-invariant.

use std::collections::{HashMap, HashSet};

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token payload.
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
}

/// The token classes the rules need. Literals carry no payload — the rules
/// only care that they are not identifiers or punctuation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// Numeric literal.
    Num,
    /// String (including raw/byte) literal.
    Str,
    /// Character or byte-character literal.
    Char,
    /// Lifetime (`'a`), distinguished from char literals.
    Lifetime,
}

/// The identifier `tok` holds, if it is one.
pub fn ident(tok: Option<&Tok>) -> Option<&str> {
    match tok.map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// True when `tok` is the punctuation character `c`.
pub fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Lexer output: the token stream plus the allow-directives by line.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// Lines that carry at least one code token — an allow-directive on a
    /// code line is a trailing comment and covers only that line.
    pub code_lines: HashSet<u32>,
    /// Resolved extent of each allow-directive: `(first, last)` source
    /// lines it suppresses (inclusive). Trailing allows cover their own
    /// line; standalone allows cover the following statement/block.
    pub allow_extents: Vec<(u32, u32, HashSet<String>)>,
    /// Lines carrying a `// schedule: replicated` comment.
    pub replicated: HashSet<u32>,
    /// The name of each [`TokKind::Lifetime`] token (a loop label among
    /// them), by token index.
    pub lifetimes: HashMap<usize, String>,
}

impl Lexed {
    /// True when `rule` is suppressed at `line`: the line falls inside the
    /// extent of an allow-directive naming `rule` (or `all`). A trailing
    /// allow's extent is its own line; a standalone allow's extent is the
    /// statement or block beginning on the next code line — never the
    /// whole file.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow_extents.iter().any(|(first, last, rules)| {
            line >= *first && line <= *last && (rules.contains(rule) || rules.contains("all"))
        })
    }

    /// True when a `// schedule: replicated` comment covers `line` — on
    /// the line itself (trailing) or standing alone directly above,
    /// skipping over further comment-only lines (doc comments, stacked
    /// directives).
    pub fn is_replicated(&self, line: u32) -> bool {
        std::iter::once(line)
            .chain((1..line).rev().take_while(|l| !self.code_lines.contains(l)))
            .any(|l| self.replicated.contains(&l))
    }
}

/// Computes the line extent each allow-directive covers. A trailing allow
/// (on a code line) covers exactly that line. A standalone allow covers
/// the statement or block starting on the next code line: tokens from
/// there through the first `;` at bracket depth 0, or — when a brace
/// opens first — through its matching `}` (so one directive above an
/// `if`/`match`/loop covers the whole construct, and nothing after it).
fn resolve_allow_extents(
    toks: &[Tok],
    allows: &HashMap<u32, HashSet<String>>,
    code_lines: &HashSet<u32>,
) -> Vec<(u32, u32, HashSet<String>)> {
    let mut extents = Vec::new();
    let mut lines: Vec<&u32> = allows.keys().collect();
    lines.sort();
    for &line in lines {
        let rules = allows[&line].clone();
        if code_lines.contains(&line) {
            extents.push((line, line, rules));
            continue;
        }
        // Standalone: find the first token past `line`, then walk to the
        // end of the statement/block it opens.
        let Some(start) = toks.iter().position(|t| t.line > line) else {
            continue; // directive at EOF covers nothing
        };
        let mut depth = 0i64;
        let mut opened_brace = false;
        let mut last = toks[start].line;
        for (k, t) in toks.iter().enumerate().skip(start) {
            last = t.line;
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('{') => {
                    depth += 1;
                    opened_brace = true;
                }
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if opened_brace && depth <= 0 {
                        // An `else` continuation keeps the statement going
                        // (`if … {…} else {…}` is one extent).
                        let continues = matches!(
                            toks.get(k + 1).map(|n| &n.kind),
                            Some(TokKind::Ident(s)) if s == "else"
                        );
                        if !continues {
                            break;
                        }
                    }
                }
                TokKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            // A close brace above the statement's own depth ends the
            // enclosing block: the statement ends with it.
            if depth < 0 {
                break;
            }
        }
        extents.push((toks[start].line, last, rules));
    }
    extents
}

/// Parses a line comment body for `lint: allow(rule-a, rule-b)` or the
/// collective-schedule checker's `schedule: replicated`.
fn parse_allow_directive(
    body: &str,
    line: u32,
    allows: &mut HashMap<u32, HashSet<String>>,
    replicated: &mut HashSet<u32>,
) {
    let body = body.trim();
    if let Some(rest) = body.strip_prefix("schedule:") {
        if rest.trim() == "replicated" {
            replicated.insert(line);
        }
        return;
    }
    let Some(rest) = body.strip_prefix("lint:") else {
        return;
    };
    let rest = rest.trim();
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    else {
        return;
    };
    let entry = allows.entry(line).or_default();
    for rule in inner.split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            entry.insert(rule.to_string());
        }
    }
}

/// Lexes `src`, stripping comments and literals (see module docs).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut allows = HashMap::new();
    let mut replicated = HashSet::new();
    let mut lifetimes = HashMap::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let bump_lines = |s: &[char], from: usize, to: usize, line: &mut u32| {
        *line += s[from..to].iter().filter(|&&c| c == '\n').count() as u32;
    };

    while i < chars.len() {
        let c = chars[i];
        // Line comment (also the allow-directive channel).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            let body: String = chars[start..j].iter().collect();
            parse_allow_directive(&body, line, &mut allows, &mut replicated);
            i = j;
            continue;
        }
        // Block comment, nested per Rust.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < chars.len() && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let tok_line = line;
            let mut j = i + 1;
            while j < chars.len() {
                match chars[j] {
                    '\\' => j += 2,
                    '"' => {
                        j += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                line: tok_line,
            });
            i = j;
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            // Lifetime: 'ident not closed by a quote ('a, 'static). A char
            // like 'x' has a closing quote right after one character.
            let is_lifetime = matches!(chars.get(i + 1), Some(ch) if ch.is_alphabetic() || *ch == '_')
                && chars.get(i + 2) != Some(&'\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                lifetimes.insert(toks.len(), chars[i + 1..j].iter().collect());
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    line,
                });
                i = j;
                continue;
            }
            let tok_line = line;
            let mut j = i + 1;
            while j < chars.len() {
                match chars[j] {
                    '\\' => j += 2,
                    '\'' => {
                        j += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
            }
            toks.push(Tok {
                kind: TokKind::Char,
                line: tok_line,
            });
            i = j;
            continue;
        }
        // Identifier/keyword — with raw/byte string detection at the head
        // (r"..", r#".."#, b"..", br#".."#).
        if c.is_alphabetic() || c == '_' {
            if let Some(end) = raw_or_byte_string_end(&chars, i) {
                let tok_line = line;
                bump_lines(&chars, i, end, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    line: tok_line,
                });
                i = end;
                continue;
            }
            let start = i;
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident(chars[start..j].iter().collect()),
                line,
            });
            i = j;
            continue;
        }
        // Number: consume the alphanumeric body (handles 0x.., 1_000, 1e9
        // suffixes); a `.` that follows becomes punctuation, which is fine
        // for these rules and keeps `0..n` ranges intact.
        if c.is_ascii_digit() {
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                line,
            });
            i = j;
            continue;
        }
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct(c),
            line,
        });
        i += 1;
    }

    let code_lines: HashSet<u32> = toks.iter().map(|t| t.line).collect();
    let allow_extents = resolve_allow_extents(&toks, &allows, &code_lines);
    Lexed {
        toks,
        code_lines,
        allow_extents,
        replicated,
        lifetimes,
    }
}

/// When position `i` starts a raw or byte string (`r"`, `r#"`, `br##"`,
/// `b"`), returns the index just past its closing quote.
fn raw_or_byte_string_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    // Optional `b`, then optional `r`.
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if j == i {
        return None; // neither prefix: a plain identifier
    }
    let mut hashes = 0usize;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) != Some(&'"') {
        return None; // `b`/`r` was just the start of an identifier
    }
    j += 1;
    if !raw {
        // Byte string: same escape rules as a plain string.
        while j < chars.len() {
            match chars[j] {
                '\\' => j += 2,
                '"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return Some(chars.len());
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while j < chars.len() {
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(chars.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // World::run in a comment
            /* thread::spawn in /* a nested */ block */
            let s = "World::run(2, f)";
            let r = r#"thread::spawn"#;
            let b = b"Instant::now";
            real_ident();
        "##;
        assert_eq!(
            idents(src),
            vec!["let", "s", "let", "r", "let", "b", "real_ident"]
        );
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let l = lex(src);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
        assert!(idents(src).contains(&"str".to_string()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "a\n/* x\ny */\nb\n\"s\nt\"\nc";
        let l = lex(src);
        let lines: Vec<(String, u32)> = l
            .toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("b".into(), 4), ("c".into(), 7)]
        );
    }

    #[test]
    fn allow_directives_attach_to_their_line() {
        let src = "x();\n// lint: allow(schedule-asymmetry)\ny(); // lint: allow(no-raw-spawn, world-run-boundary)\n";
        let l = lex(src);
        assert!(l.allowed(3, "schedule-asymmetry"), "line below the allow");
        assert!(l.allowed(3, "no-raw-spawn"), "trailing comment");
        assert!(l.allowed(3, "world-run-boundary"));
        assert!(!l.allowed(1, "schedule-asymmetry"));
        assert!(!l.allowed(3, "timed-regions-only"));
        assert!(
            !l.allowed(4, "no-raw-spawn"),
            "a trailing allow covers only its own line"
        );
    }

    #[test]
    fn standalone_allow_covers_the_following_block_and_no_further() {
        let src = "\
a();
// lint: allow(schedule-asymmetry)
if comm.rank() == 0 {
    comm.barrier();
    comm.allreduce(
        y, add);
}
comm.allgather(x);
";
        let l = lex(src);
        for covered in 3..=7 {
            assert!(
                l.allowed(covered, "schedule-asymmetry"),
                "line {covered} is inside the annotated block"
            );
        }
        assert!(
            !l.allowed(8, "schedule-asymmetry"),
            "the allow must not leak past its block"
        );
        assert!(!l.allowed(1, "schedule-asymmetry"));
    }

    #[test]
    fn standalone_allow_covers_a_multiline_statement_to_its_semicolon() {
        let src = "\
// lint: allow(timed-regions-only)
recv[0]
    .bytes_mut()[0] = 0xFF;
recv[1].bytes_mut()[0] = 0xFF;
";
        let l = lex(src);
        assert!(l.allowed(2, "timed-regions-only"));
        assert!(l.allowed(3, "timed-regions-only"));
        assert!(
            !l.allowed(4, "timed-regions-only"),
            "the next statement is outside the extent"
        );
    }

    #[test]
    fn allow_never_applies_file_wide() {
        // A directive at the very top of the file covers exactly the first
        // statement, not everything after it.
        let src = "// lint: allow(all)\nfirst();\nsecond();\n";
        let l = lex(src);
        assert!(l.allowed(2, "anything"));
        assert!(
            !l.allowed(3, "anything"),
            "allow(all) is still statement-scoped"
        );
    }

    #[test]
    fn replicated_directives_cover_their_line_or_the_next_code_line() {
        let src = "\
// schedule: reset
let r = run_ranks(cfg, f);
let n = x.len(); // schedule: replicated
// schedule: replicated
// (the condition is a pure function of allreduced counts)
let flag = decide();
";
        let l = lex(src);
        assert!(l.is_replicated(3), "trailing form");
        assert!(
            l.is_replicated(6),
            "standalone form skips comment-only lines"
        );
        assert!(!l.is_replicated(2), "no other directive counts");
    }
}
