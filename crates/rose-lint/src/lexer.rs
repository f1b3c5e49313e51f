//! A minimal Rust lexer.
//!
//! Just enough tokenization for line-level lint rules: identifiers and
//! punctuation survive; string/char/numeric literals are reduced to opaque
//! placeholder tokens so their *contents* can never trip a rule (`"call
//! unwrap()"` in a log message is not a panic site); comments are stripped
//! from the token stream but collected per line, because that is where
//! `// rose-lint: allow(...)` annotations live.
//!
//! The lexer is intentionally forgiving — on a construct it does not
//! understand it consumes one byte and moves on. A linter must never make
//! the build fail because *it* could not parse something `rustc` accepted.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `as`, `Instant`, `unwrap`, ...).
    Ident(String),
    /// Punctuation. Single characters, except `::` which is coalesced so
    /// path rules can match `Instant :: now` directly.
    Punct(&'static str),
    /// A string, raw-string, byte-string, or char literal (contents dropped).
    Literal,
    /// A numeric literal (contents dropped; `as`-cast rules only need the
    /// *target* type, which is an identifier).
    Number,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: usize,
    /// The token itself.
    pub tok: Tok,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens outside comments, in source order.
    pub tokens: Vec<Token>,
    /// Every comment (line or block), as `(line, text)` with the comment
    /// markers stripped. Block comments contribute their first line.
    pub comments: Vec<(usize, String)>,
}

/// Single-character punctuation we emit as-is. Everything else unknown is
/// skipped byte-by-byte.
const PUNCTS: &[(char, &str)] = &[
    ('.', "."),
    (',', ","),
    (';', ";"),
    ('!', "!"),
    ('#', "#"),
    ('(', "("),
    (')', ")"),
    ('[', "["),
    (']', "]"),
    ('{', "{"),
    ('}', "}"),
    ('<', "<"),
    ('>', ">"),
    ('=', "="),
    ('&', "&"),
    ('*', "*"),
    ('+', "+"),
    ('-', "-"),
    ('/', "/"),
    ('%', "%"),
    ('|', "|"),
    ('^', "^"),
    ('?', "?"),
    ('@', "@"),
    ('~', "~"),
    ('$', "$"),
    (':', ":"),
];

fn punct_str(c: char) -> Option<&'static str> {
    PUNCTS.iter().find(|(p, _)| *p == c).map(|(_, s)| *s)
}

/// Lexes `source` into tokens and per-line comments.
pub fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (also covers `///` and `//!` doc comments).
            '/' if bytes.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end] != '\n' {
                    end += 1;
                }
                let text: String = bytes[start..end].iter().collect();
                out.comments.push((line, text.trim().to_string()));
                i = end;
            }
            // Block comment, nested per Rust rules.
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                i += 2;
                let text_start = i;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text_end = i.saturating_sub(2).max(text_start);
                let first_line: String = bytes[start.min(text_end)..text_end]
                    .iter()
                    .take_while(|c| **c != '\n')
                    .collect();
                out.comments
                    .push((start_line, first_line.trim().to_string()));
            }
            // Raw / byte / byte-raw string prefixes, checked before plain
            // identifiers so `r"..."` is not lexed as ident `r`.
            'r' | 'b' if is_raw_or_byte_string(&bytes, i) => {
                let tok_line = line;
                i = skip_string_prefix(&bytes, i, &mut line);
                out.tokens.push(Token {
                    line: tok_line,
                    tok: Tok::Literal,
                });
            }
            c if c == '_' || c.is_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == '_' || bytes[i].is_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Ident(bytes[start..i].iter().collect()),
                });
            }
            c if c.is_ascii_digit() => {
                // Consume the numeric literal: digits, ident chars
                // (suffixes, hex), `.` only when followed by a digit (so
                // `0..10` and `1.method()` stay intact), exponent signs.
                while i < bytes.len() {
                    let d = bytes[i];
                    if d == '_' || d.is_alphanumeric() {
                        if (d == 'e' || d == 'E')
                            && matches!(bytes.get(i + 1), Some('+') | Some('-'))
                            && bytes.get(i + 2).is_some_and(|c| c.is_ascii_digit())
                        {
                            i += 2;
                            continue;
                        }
                        i += 1;
                    } else if d == '.' && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Number,
                });
            }
            '"' => {
                let tok_line = line;
                i = skip_plain_string(&bytes, i, &mut line);
                out.tokens.push(Token {
                    line: tok_line,
                    tok: Tok::Literal,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'a` (not closed by `'`) is a
                // lifetime; `'a'`, `'\n'`, `'\u{1F600}'` are chars.
                if is_lifetime(&bytes, i) {
                    i += 1;
                    while i < bytes.len() && (bytes[i] == '_' || bytes[i].is_alphanumeric()) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Lifetime,
                    });
                } else {
                    let tok_line = line;
                    i = skip_char_literal(&bytes, i, &mut line);
                    out.tokens.push(Token {
                        line: tok_line,
                        tok: Tok::Literal,
                    });
                }
            }
            ':' if bytes.get(i + 1) == Some(&':') => {
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct("::"),
                });
                i += 2;
            }
            c => {
                if let Some(p) = punct_str(c) {
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Punct(p),
                    });
                }
                i += 1;
            }
        }
    }
    out
}

/// True when position `i` starts `r"`, `r#"`, `b"`, `b'`, `br"`, or `br#"`.
fn is_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) == Some(&'\'') {
            return true; // byte char literal b'x'
        }
    }
    if bytes.get(j) == Some(&'r') {
        j += 1;
        while bytes.get(j) == Some(&'#') {
            j += 1;
        }
    }
    bytes.get(j) == Some(&'"')
}

/// Skips a raw/byte/byte-raw string (or byte char) starting at `i`;
/// returns the index just past it.
fn skip_string_prefix(bytes: &[char], mut i: usize, line: &mut usize) -> usize {
    if bytes[i] == 'b' {
        i += 1;
        if bytes.get(i) == Some(&'\'') {
            return skip_char_literal(bytes, i, line);
        }
    }
    if bytes.get(i) == Some(&'r') {
        i += 1;
        let mut hashes = 0;
        while bytes.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
        // Opening quote.
        i += 1;
        // Scan for `"` followed by `hashes` hash marks; raw strings have
        // no escapes.
        while i < bytes.len() {
            if bytes[i] == '\n' {
                *line += 1;
                i += 1;
            } else if bytes[i] == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if bytes.get(i + 1 + k) != Some(&'#') {
                        ok = false;
                        break;
                    }
                }
                i += 1;
                if ok {
                    return i + hashes;
                }
            } else {
                i += 1;
            }
        }
        i
    } else {
        skip_plain_string(bytes, i, line)
    }
}

/// Skips a plain `"..."` string (with escapes) starting at the quote.
fn skip_plain_string(bytes: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a `'x'`-style char literal starting at the quote.
fn skip_char_literal(bytes: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Distinguishes a lifetime `'a` from a char literal `'a'`: a lifetime's
/// identifier is not closed by a quote (and `'_'` the char is one
/// character long, while `'_` the lifetime placeholder is followed by a
/// non-quote).
fn is_lifetime(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(c) if *c == '_' || c.is_alphabetic() => {
            // Scan the would-be identifier; if it terminates in a quote
            // it was a char literal like 'a' or a multi-char escape.
            let mut j = i + 2;
            while bytes
                .get(j)
                .is_some_and(|c| *c == '_' || c.is_alphanumeric())
            {
                j += 1;
            }
            bytes.get(j) != Some(&'\'')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn identifiers_and_paths() {
        let lexed = lex("std::time::Instant::now()");
        let toks: Vec<_> = lexed.tokens.iter().map(|t| &t.tok).collect();
        assert_eq!(
            toks,
            vec![
                &Tok::Ident("std".into()),
                &Tok::Punct("::"),
                &Tok::Ident("time".into()),
                &Tok::Punct("::"),
                &Tok::Ident("Instant".into()),
                &Tok::Punct("::"),
                &Tok::Ident("now".into()),
                &Tok::Punct("("),
                &Tok::Punct(")"),
            ]
        );
    }

    #[test]
    fn string_contents_are_opaque() {
        assert_eq!(
            idents(r#"let x = "call unwrap() and panic!";"#),
            vec!["let", "x"]
        );
        assert_eq!(
            idents(r##"let y = r#"Instant::now()"#;"##),
            vec!["let", "y"]
        );
        assert_eq!(idents("let z = b\"HashMap\";"), vec!["let", "z"]);
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let lexed = lex("let a = 1; // rose-lint: allow(DET001, test)\nlet b = 2;");
        assert_eq!(
            lexed.comments,
            vec![(1, "rose-lint: allow(DET001, test)".to_string())]
        );
        assert_eq!(idents("// unwrap()\nfoo"), vec!["foo"]);
        assert_eq!(idents("/* panic! /* nested */ still */ bar"), vec!["bar"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let lexed = lex("for i in 0..10 { let j = 1.5e-3; }");
        // `..` survives as two dots, `1.5e-3` is one number.
        let dots = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Punct("."))
            .count();
        assert_eq!(dots, 2);
        let numbers = lexed.tokens.iter().filter(|t| t.tok == Tok::Number).count();
        assert_eq!(numbers, 3); // 0, 10, 1.5e-3
    }

    #[test]
    fn lines_are_tracked_across_multiline_strings() {
        let lexed = lex("let a = \"one\ntwo\";\nlet b = 1;");
        let b = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 3);
    }

    // Edge cases feeding the tier W parser: each must both survive (the
    // parser never panics or derails) and produce the right token stream.

    /// Lex + parse; returns the idents so token-stream shape is checkable
    /// while proving `SourceFile::parse` survives the stream.
    fn idents_and_parse(src: &str) -> Vec<String> {
        let _ = crate::ast::SourceFile::parse("x.rs", src);
        idents(src)
    }

    #[test]
    fn raw_strings_with_multiple_hashes_end_at_the_matching_fence() {
        // The inner `"#` must not close a `##`-fenced raw string.
        let src = r####"fn f() { let s = r##"contains "# and Instant::now()"##; g(); }"####;
        assert_eq!(idents_and_parse(src), vec!["fn", "f", "let", "s", "g"]);
        // A byte-raw string with hashes is one opaque literal too.
        let src2 = r###"let t = br#"HashMap "quoted""#;"###;
        assert_eq!(idents_and_parse(src2), vec!["let", "t"]);
        let lexed = lex(src2);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.tok == Tok::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn nested_block_comments_containing_quotes_and_slashes() {
        // The `"` and `//` inside must not open a string or eat the `*/`.
        let src = "/* outer \" // /* inner unwrap() */ still \" */ fn after() {}";
        assert_eq!(idents_and_parse(src), vec!["fn", "after"]);
        // An unterminated quote inside a comment must not swallow the file.
        assert_eq!(
            idents_and_parse("/* lone \" quote */ fn g() { x.unwrap(); }"),
            vec!["fn", "g", "x", "unwrap"]
        );
    }

    #[test]
    fn byte_char_escapes_are_single_opaque_literals() {
        // b'\'' — the escaped quote must not terminate the literal early.
        let src = r"fn f() { let q = b'\''; let n = b'\n'; let z = b'x'; }";
        assert_eq!(
            idents_and_parse(src),
            vec!["fn", "f", "let", "q", "let", "n", "let", "z"]
        );
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.tok == Tok::Literal)
                .count(),
            3
        );
        // Same for the char (non-byte) spelling.
        assert_eq!(idents_and_parse(r"let c = '\'';"), vec!["let", "c"]);
    }

    #[test]
    fn lifetimes_inside_generic_args_are_not_chars() {
        let src = "fn f<'a, 'b>(x: Map<'a, K<'b>>, c: char) -> bool { c == 'a' }";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.tok == Tok::Lifetime)
                .count(),
            4,
            "'a, 'b in the params and the two uses in the types"
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.tok == Tok::Literal)
                .count(),
            1,
            "only the 'a' comparison at the end is a char literal"
        );
        // And the parser still sees one fn named f.
        let ast = crate::ast::SourceFile::parse("x.rs", src).ast;
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "f");
    }
}
