//! The one parse every rule reads: items, not expressions.
//!
//! [`SourceFile::parse`] lexes a file, masks its test-only code and parses
//! its items exactly once; tier L ([`crate::rules`]), tier W
//! ([`crate::workspace`], [`crate::wrules`]) and the ANN002 check all read
//! that result. The rules need to know *which functions exist, where
//! their bodies are, what they call, and what structs declare* — nothing
//! more. So the AST holds exactly that: function definitions with their
//! enclosing `impl`/`trait` type, body range and the call expressions
//! inside, struct definitions with named fields, and enum names. There is
//! deliberately no expression grammar, no type resolution, and no borrow
//! anything: the parser is a single linear pass that tracks brace depth
//! and an impl-context stack.
//!
//! Like the lexer, the parser is forgiving by construction — a construct it
//! does not understand is skipped token-by-token. A linter must never fail
//! the build because *it* could not parse something `rustc` accepted.
//!
//! Known, documented approximations (see DESIGN.md §4g):
//!
//! - Nested `fn` items inside a function body are not separate nodes; their
//!   calls (and, for TRACE001, their span calls) are attributed to the
//!   enclosing function (an over-approximation, safe for reachability).
//! - Enum variants are not parsed; enums contribute only their name to the
//!   symbol table.
//! - Tuple and unit structs have no named fields and are skipped by
//!   SNAP002 (their codecs cannot silently miss a field by name).

use crate::lexer::{lex, Lexed, Tok, Token};

/// One source file, lexed, test-masked and parsed once.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Tokens and comments.
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` sits in test-only code: a
    /// `#[cfg(test)]` module body or a `#[test]` function body.
    pub mask: Vec<bool>,
    /// The file's items.
    pub ast: Ast,
}

impl SourceFile {
    /// Lexes, masks and parses `source`.
    pub fn parse(rel: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let mask = test_mask(&lexed.tokens);
        let ast = Parser {
            tokens: &lexed.tokens,
            mask: &mask,
            ast: Ast::default(),
        }
        .run();
        SourceFile {
            rel: rel.to_string(),
            lexed,
            mask,
            ast,
        }
    }

    /// True when some token on `line` sits in test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.lexed
            .tokens
            .iter()
            .zip(&self.mask)
            .any(|(t, m)| *m && t.line == line)
    }
}

/// Computes, per token index, whether the token sits inside test-only
/// code: a `#[cfg(test)]` module body or a `#[test]` function body.
/// The determinism contract governs simulation logic; tests may use
/// wall-clock timeouts and `unwrap()` freely.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Find the body's opening brace (skipping the item header),
            // then mark the whole brace-balanced region.
            let mut j = attr_end;
            while j < tokens.len() && tokens[j].tok != Tok::Punct("{") {
                j += 1;
            }
            if j < tokens.len() {
                let mut depth = 0usize;
                let start = i;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct("{") => depth += 1,
                        Tok::Punct("}") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for m in mask
                    .iter_mut()
                    .take(j.min(tokens.len() - 1) + 1)
                    .skip(start)
                {
                    *m = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Matches `#[cfg(test)]` or `#[test]` starting at `i`; returns the index
/// just past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.tok != Tok::Punct("#") || tokens.get(i + 1)?.tok != Tok::Punct("[") {
        return None;
    }
    match &tokens.get(i + 2)?.tok {
        Tok::Ident(s) if s == "test" => {
            (tokens.get(i + 3)?.tok == Tok::Punct("]")).then_some(i + 4)
        }
        Tok::Ident(s) if s == "cfg" => {
            let seq = [
                Tok::Punct("("),
                Tok::Ident("test".into()),
                Tok::Punct(")"),
                Tok::Punct("]"),
            ];
            for (k, want) in seq.iter().enumerate() {
                if &tokens.get(i + 3 + k)?.tok != want {
                    return None;
                }
            }
            Some(i + 7)
        }
        _ => None,
    }
}

/// One call expression found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path segments, e.g. `["Soc", "run_granted"]` for
    /// `Soc::run_granted(...)`, or `["helper"]` for a bare `helper(...)`.
    /// Method calls carry a single segment: the method name.
    pub segments: Vec<String>,
    /// True for `.name(...)` receiver calls (resolved by name alone).
    pub method: bool,
    /// 1-based source line of the call.
    pub line: usize,
}

impl Call {
    /// The final path segment — the function name being invoked.
    pub fn name(&self) -> &str {
        self.segments.last().map(String::as_str).unwrap_or("")
    }
}

/// One function definition (free fn, inherent/trait `impl` method, or
/// trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl`/`trait` type name, if any.
    pub self_ty: Option<String>,
    /// True when the first parameter is a `self` receiver (`self`,
    /// `&self`, `&'a mut self`, `self: Box<Self>`, ...): only such a
    /// function can be the target of method-call syntax.
    pub has_receiver: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when the definition sits inside `#[cfg(test)]` / `#[test]`
    /// code (excluded from the call graph — the contract governs
    /// simulation logic, not tests).
    pub is_test: bool,
    /// Token-index range `[open, end)` of the body, from its `{` to just
    /// past its `}`, or `None` for bodiless declarations (trait method
    /// signatures).
    pub body: Option<(usize, usize)>,
    /// Every call expression in the body, in source order.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qname(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The field's name.
    pub name: String,
    /// 1-based line of the field declaration.
    pub line: usize,
}

/// One struct definition with named fields (tuple/unit structs are
/// recorded with an empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Declared named fields, in source order.
    pub fields: Vec<Field>,
    /// True when declared inside test-only code.
    pub is_test: bool,
}

/// The parsed items of one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Every function definition.
    pub fns: Vec<FnDef>,
    /// Every struct definition.
    pub structs: Vec<StructDef>,
    /// Names of enum definitions (variants are not parsed).
    pub enums: Vec<String>,
}

struct Parser<'a> {
    tokens: &'a [Token],
    mask: &'a [bool],
    ast: Ast,
}

fn ident(tok: Option<&Token>) -> Option<&str> {
    match tok.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tok: Option<&Token>, p: &str) -> bool {
    matches!(tok.map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p)
}

impl<'a> Parser<'a> {
    fn run(mut self) -> Ast {
        // Stack of `(brace_depth_of_body, type_name)` impl/trait contexts.
        let mut ctx: Vec<(i32, String)> = Vec::new();
        let mut depth = 0i32;
        let mut i = 0usize;
        while i < self.tokens.len() {
            match &self.tokens[i].tok {
                Tok::Punct("{") => {
                    depth += 1;
                    i += 1;
                }
                Tok::Punct("}") => {
                    depth -= 1;
                    while ctx.last().is_some_and(|(d, _)| *d > depth) {
                        ctx.pop();
                    }
                    i += 1;
                }
                Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                    if let Some((ty, body_open)) = self.parse_impl_header(i) {
                        depth += 1; // the consumed `{`
                        ctx.push((depth, ty));
                        i = body_open + 1;
                    } else {
                        i += 1;
                    }
                }
                Tok::Ident(kw) if kw == "fn" => {
                    let self_ty = ctx.last().map(|(_, ty)| ty.clone());
                    i = self.parse_fn(i, self_ty);
                }
                Tok::Ident(kw) if kw == "struct" => {
                    i = self.parse_struct(i);
                }
                Tok::Ident(kw) if kw == "enum" => {
                    if let Some(name) = ident(self.tokens.get(i + 1)) {
                        self.ast.enums.push(name.to_string());
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        self.ast
    }

    /// Parses `impl<G> Trait for path::Type<G> where ... {` (or a `trait
    /// Name {` header) starting at the `impl`/`trait` keyword. Returns the
    /// implemented type's final path segment and the index of the body
    /// `{`, or `None` if no body brace is found (e.g. `impl Foo;` never —
    /// but the parser must survive anything).
    fn parse_impl_header(&self, start: usize) -> Option<(String, usize)> {
        let mut j = start + 1;
        let mut last_seg: Option<String> = None;
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Punct("<") => j = self.skip_angle(j),
                Tok::Punct("{") => return last_seg.map(|ty| (ty, j)),
                // A `;` before any `{` means this was not a block item.
                Tok::Punct(";") => return None,
                Tok::Ident(s) if s == "for" => {
                    // `impl Trait for Type`: the left side was the trait.
                    last_seg = None;
                    j += 1;
                }
                Tok::Ident(s) if s == "where" => {
                    // Skip the clause up to the body brace, tracking
                    // parens/brackets so `where F: Fn(u8)` survives.
                    let mut d = 0i32;
                    while j < self.tokens.len() {
                        match &self.tokens[j].tok {
                            Tok::Punct("(") | Tok::Punct("[") => d += 1,
                            Tok::Punct(")") | Tok::Punct("]") => d -= 1,
                            Tok::Punct("{") if d == 0 => {
                                return last_seg.map(|ty| (ty, j));
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return None;
                }
                Tok::Ident(s) => {
                    last_seg = Some(s.clone());
                    j += 1;
                }
                _ => j += 1,
            }
        }
        None
    }

    /// Skips a balanced `<...>` group starting at the `<`; returns the
    /// index just past the matching `>`. `->` arrows inside (e.g.
    /// `Box<dyn Fn() -> u8>`) do not close the group.
    fn skip_angle(&self, start: usize) -> usize {
        let mut d = 0i32;
        let mut j = start;
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Punct("<") => d += 1,
                Tok::Punct(">") if !is_punct(self.tokens.get(j.wrapping_sub(1)), "-") => {
                    d -= 1;
                    if d == 0 {
                        return j + 1;
                    }
                }
                // Angle groups never span these; bail out so a stray `<`
                // (comparison operator) cannot swallow the file.
                Tok::Punct(";") | Tok::Punct("{") => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Parses a `fn` item starting at the `fn` keyword; returns the index
    /// to continue scanning from (just past the body, or past the `;`).
    fn parse_fn(&mut self, start: usize, self_ty: Option<String>) -> usize {
        let line = self.tokens[start].line;
        let Some(name) = ident(self.tokens.get(start + 1)) else {
            return start + 1;
        };
        let name = name.to_string();
        // The parameter list opens after the name and any generics; a
        // receiver is `self` behind optional `&`, lifetime and `mut`.
        let mut p = start + 2;
        if is_punct(self.tokens.get(p), "<") {
            p = self.skip_angle(p);
        }
        let mut has_receiver = false;
        if is_punct(self.tokens.get(p), "(") {
            p += 1;
            while is_punct(self.tokens.get(p), "&")
                || matches!(self.tokens.get(p).map(|t| &t.tok), Some(Tok::Lifetime))
                || ident(self.tokens.get(p)) == Some("mut")
            {
                p += 1;
            }
            has_receiver = ident(self.tokens.get(p)) == Some("self");
        }
        // Scan the signature for the body `{` or a bodiless `;`, tracking
        // paren/bracket depth so defaults like `[u8; 4]` don't end it.
        let mut j = start + 1;
        let mut d = 0i32;
        let body_open = loop {
            match self.tokens.get(j).map(|t| &t.tok) {
                None => break None,
                Some(Tok::Punct("(")) | Some(Tok::Punct("[")) => d += 1,
                Some(Tok::Punct(")")) | Some(Tok::Punct("]")) => d -= 1,
                Some(Tok::Punct(";")) if d == 0 => break None,
                Some(Tok::Punct("{")) if d == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let (body, calls, next) = match body_open {
            Some(open) => {
                let end = self.skip_braces(open);
                (Some((open, end)), self.extract_calls(open, end), end)
            }
            None => (None, Vec::new(), j + 1),
        };
        self.ast.fns.push(FnDef {
            name,
            self_ty,
            has_receiver,
            line,
            is_test: self.mask[start],
            body,
            calls,
        });
        next
    }

    /// Returns the index just past the brace-balanced region opened at
    /// `open` (which must point at a `{`).
    fn skip_braces(&self, open: usize) -> usize {
        let mut d = 0i32;
        let mut j = open;
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Punct("{") => d += 1,
                Tok::Punct("}") => {
                    d -= 1;
                    if d == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Extracts every call expression in the token range `[start, end)`.
    fn extract_calls(&self, start: usize, end: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        let mut k = start;
        while k < end {
            let Some(name) = ident(self.tokens.get(k)) else {
                k += 1;
                continue;
            };
            // Skip keyword lookalikes and nested definitions: `fn name(`,
            // `if cond (`, `while let (`, `match x {`, `for x in iter(`.
            if matches!(
                name,
                "fn" | "if" | "while" | "match" | "for" | "loop" | "return" | "in" | "let" | "move"
            ) || ident(self.tokens.get(k.wrapping_sub(1))) == Some("fn")
            {
                k += 1;
                continue;
            }
            // `name(` — plain call; `name::<T>(` — turbofish call;
            // `Type::name` ending an argument — a function passed by path
            // (`r.seq(TraceEvent::restore_state)`), an edge like a call.
            let after = if is_punct(self.tokens.get(k + 1), "(") {
                Some(k + 1)
            } else if is_punct(self.tokens.get(k + 1), "::")
                && is_punct(self.tokens.get(k + 2), "<")
            {
                let past = self.skip_angle(k + 2);
                is_punct(self.tokens.get(past), "(").then_some(past)
            } else if is_punct(self.tokens.get(k.wrapping_sub(1)), "::")
                && (is_punct(self.tokens.get(k + 1), ")") || is_punct(self.tokens.get(k + 1), ","))
            {
                Some(k + 1)
            } else {
                None
            };
            let Some(_) = after else {
                k += 1;
                continue;
            };
            let line = self.tokens[k].line;
            if is_punct(self.tokens.get(k.wrapping_sub(1)), ".") {
                calls.push(Call {
                    segments: vec![name.to_string()],
                    method: true,
                    line,
                });
            } else {
                // Walk the `a::b::name` path backwards.
                let mut segments = vec![name.to_string()];
                let mut j = k;
                while j >= 2
                    && is_punct(self.tokens.get(j - 1), "::")
                    && ident(self.tokens.get(j - 2)).is_some()
                {
                    segments.push(ident(self.tokens.get(j - 2)).unwrap().to_string());
                    j -= 2;
                }
                segments.reverse();
                calls.push(Call {
                    segments,
                    method: false,
                    line,
                });
            }
            k += 1;
        }
        calls
    }

    /// Parses a `struct` item starting at the keyword; returns the index
    /// to continue from.
    fn parse_struct(&mut self, start: usize) -> usize {
        let line = self.tokens[start].line;
        let is_test = self.mask[start];
        let Some(name) = ident(self.tokens.get(start + 1)) else {
            return start + 1;
        };
        let name = name.to_string();
        let mut j = start + 2;
        if is_punct(self.tokens.get(j), "<") {
            j = self.skip_angle(j);
        }
        // `where` clause before the body.
        while ident(self.tokens.get(j)) == Some("where") {
            while j < self.tokens.len() && !is_punct(self.tokens.get(j), "{") {
                j += 1;
            }
        }
        if is_punct(self.tokens.get(j), ";") {
            // Unit struct.
            self.ast.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
                is_test,
            });
            return j + 1;
        }
        if is_punct(self.tokens.get(j), "(") {
            // Tuple struct: skip the parens (and trailing `;`).
            let mut d = 0i32;
            while j < self.tokens.len() {
                match &self.tokens[j].tok {
                    Tok::Punct("(") => d += 1,
                    Tok::Punct(")") => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            self.ast.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
                is_test,
            });
            return j + 1;
        }
        if !is_punct(self.tokens.get(j), "{") {
            return j;
        }
        let body_end = self.skip_braces(j);
        let fields = self.parse_fields(j + 1, body_end.saturating_sub(1));
        self.ast.structs.push(StructDef {
            name,
            line,
            fields,
            is_test,
        });
        body_end
    }

    /// Parses named fields in the token range `[start, end)` (the inside
    /// of a struct body): `#[attr]* pub(..)? name: Type,`.
    fn parse_fields(&self, start: usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut k = start;
        while k < end {
            // Skip attributes.
            while is_punct(self.tokens.get(k), "#") && is_punct(self.tokens.get(k + 1), "[") {
                let mut d = 0i32;
                while k < end {
                    match &self.tokens[k].tok {
                        Tok::Punct("[") => d += 1,
                        Tok::Punct("]") => {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            // Skip visibility.
            if ident(self.tokens.get(k)) == Some("pub") {
                k += 1;
                if is_punct(self.tokens.get(k), "(") {
                    let mut d = 0i32;
                    while k < end {
                        match &self.tokens[k].tok {
                            Tok::Punct("(") => d += 1,
                            Tok::Punct(")") => {
                                d -= 1;
                                if d == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            let (Some(name), true) = (
                ident(self.tokens.get(k)),
                is_punct(self.tokens.get(k + 1), ":"),
            ) else {
                // Not a field start; resynchronize at the next comma.
                while k < end && !is_punct(self.tokens.get(k), ",") {
                    k += 1;
                }
                k += 1;
                continue;
            };
            fields.push(Field {
                name: name.to_string(),
                line: self.tokens[k].line,
            });
            // Skip the type up to the field-separating comma, tracking
            // every bracket kind (incl. `<>` with the `->` guard).
            k += 2;
            let mut d = 0i32;
            while k < end {
                match &self.tokens[k].tok {
                    Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => d += 1,
                    Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("}") => d -= 1,
                    Tok::Punct("<") => d += 1,
                    Tok::Punct(">") if !is_punct(self.tokens.get(k.wrapping_sub(1)), "-") => {
                        d -= 1;
                    }
                    Tok::Punct(",") if d == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> Ast {
        SourceFile::parse("x.rs", src).ast
    }

    #[test]
    fn free_fn_with_calls() {
        let ast = parse_src("fn run() {\n helper();\n other::deep(x);\n y.method(z);\n}");
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "run");
        assert_eq!(f.self_ty, None);
        let calls: Vec<(String, bool)> = f
            .calls
            .iter()
            .map(|c| (c.segments.join("::"), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper".into(), false),
                ("other::deep".into(), false),
                ("method".into(), true),
            ]
        );
    }

    #[test]
    fn impl_methods_carry_self_ty() {
        let ast = parse_src(
            "impl Soc {\n pub fn step(&mut self) { self.tick(); }\n}\n\
             impl fmt::Debug for Soc {\n fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write(f) }\n}",
        );
        let names: Vec<String> = ast.fns.iter().map(|f| f.qname()).collect();
        assert_eq!(names, vec!["Soc::step", "Soc::fmt"]);
        assert!(ast.fns.iter().all(|f| f.has_receiver));
    }

    #[test]
    fn receivers_are_recorded() {
        let ast = parse_src(
            "impl Mission {\n fn start(config: &Config) -> Mission { build(config) }\n\
             fn a(self) {}\n fn b(mut self) {}\n fn c<'a, T: Fn(u8)>(&'a mut self, t: T) {}\n\
             fn d(self: Box<Self>) {}\n fn e(selfish: u8) {}\n}\nfn start() {}",
        );
        let receivers: Vec<(String, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.qname(), f.has_receiver))
            .collect();
        assert_eq!(
            receivers,
            vec![
                ("Mission::start".into(), false),
                ("Mission::a".into(), true),
                ("Mission::b".into(), true),
                ("Mission::c".into(), true),
                ("Mission::d".into(), true),
                ("Mission::e".into(), false),
                ("start".into(), false),
            ]
        );
    }

    #[test]
    fn generic_impl_and_where_clause() {
        let ast = parse_src(
            "impl<E: EnvSide, R: RtlSide> Synchronizer<E, R> where E: Send {\n fn run_syncs(&mut self) {}\n}",
        );
        assert_eq!(ast.fns[0].qname(), "Synchronizer::run_syncs");
    }

    #[test]
    fn trait_default_methods_and_decls() {
        let ast = parse_src(
            "trait RtlSide {\n fn grant(&mut self, c: u64);\n fn halted(&self) -> bool { false }\n}",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].qname(), "RtlSide::grant");
        assert!(ast.fns[0].body.is_none());
        assert_eq!(ast.fns[1].qname(), "RtlSide::halted");
        assert!(ast.fns[1].body.is_some());
    }

    #[test]
    fn struct_fields_with_attrs_vis_and_generics() {
        let ast = parse_src(
            "pub struct Recorder<T> {\n #[doc(hidden)]\n pub ticks: u64,\n pub(crate) buf: Vec<Box<dyn Fn(u8) -> u8>>,\n last: Option<(u32, T)>,\n}",
        );
        assert_eq!(ast.structs.len(), 1);
        let fields: Vec<&str> = ast.structs[0]
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(fields, vec!["ticks", "buf", "last"]);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let ast = parse_src("struct Stopwatch(Instant);\nstruct Marker;\n");
        assert_eq!(ast.structs.len(), 2);
        assert!(ast.structs.iter().all(|s| s.fields.is_empty()));
    }

    #[test]
    fn test_code_is_marked() {
        let ast = parse_src(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn check() {}\n}",
        );
        let flags: Vec<(String, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.is_test))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("live".into(), false),
                ("helper".into(), true),
                ("check".into(), true),
            ]
        );
    }

    #[test]
    fn turbofish_calls_resolve_to_final_segment() {
        let ast = parse_src("fn f() {\n let v = items.collect::<Vec<u8>>();\n parse::<u32>(s);\n}");
        let calls: Vec<&str> = ast.fns[0].calls.iter().map(|c| c.name()).collect();
        assert_eq!(calls, vec!["collect", "parse"]);
    }

    #[test]
    fn enums_contribute_their_name() {
        let ast = parse_src("enum SyncMode { Sequential, Parallel }");
        assert_eq!(ast.enums, vec!["SyncMode"]);
        assert!(ast.fns.is_empty());
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let file = SourceFile::parse(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn a() { x.unwrap(); }\n}\nfn also_live() {}",
        );
        let live_idents: Vec<&str> = file
            .lexed
            .tokens
            .iter()
            .zip(&file.mask)
            .filter_map(|(t, m)| match &t.tok {
                Tok::Ident(s) if !m => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(live_idents, vec!["fn", "live", "fn", "also_live"]);
        assert!(!file.is_test_line(1));
        assert!(file.is_test_line(4));
    }
}
