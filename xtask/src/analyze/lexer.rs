//! A dependency-free Rust lexer good enough to be trusted by lint rules.
//!
//! The substring scanners this replaces were blind to comments inside
//! strings, strings inside comments, raw strings, and macro bodies — a
//! `"contains unwrap()"` literal or a nested `/* Ordering::SeqCst */`
//! comment could silently flip a verdict either way. This lexer
//! tokenises real Rust lexical structure:
//!
//! * line comments (`//`, `///`, `//!`) and **nesting** block comments
//!   (`/* /* */ */`, `/** … */`, `/*! … */`);
//! * string literals with escapes, byte strings, C strings, and raw
//!   (byte/C) strings with any number of `#` guards;
//! * char literals vs. lifetimes (`'a'` vs `'a`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`) and `'_`;
//! * raw identifiers (`r#type`) vs. raw strings (`r#"…"#`);
//! * numeric literals (hex/octal/binary prefixes, underscores, float
//!   exponents, type suffixes) — enough to never mis-enter a string.
//!
//! Every token carries its byte span and 1-based start line, and the
//! concatenation of token texts reproduces the input byte-for-byte
//! (`tests::self_lex_round_trips_whole_tree` proves this over every
//! `.rs` file in the repository). Unterminated constructs are returned
//! as `TokenKind::Error` tokens rather than panics so the analyzer can
//! report them with a location.

/// Lexical class of a token. Rules mostly care about `Ident`,
/// `LineComment`/`BlockComment` (waivers, ORDERING/SAFETY rationales)
/// and treat everything else as structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// String / raw-string / byte-string / C-string literal.
    Str,
    /// Character or byte-character literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integer or float, any base, with suffix).
    Number,
    /// `// …` to end of line (doc variants included).
    LineComment,
    /// `/* … */` with nesting (doc variants included).
    BlockComment,
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// Any single punctuation byte (`{`, `.`, `#`, …). Multi-byte
    /// operators are emitted as consecutive one-byte tokens; rules here
    /// never need `::` joined.
    Punct,
    /// Lexically malformed region (unterminated string/comment). The
    /// analyzer reports these; the span still covers the raw text so
    /// round-tripping holds.
    Error,
}

/// One token: kind + byte span + 1-based line of its first byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub(crate) fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// Lexes `src` into a complete token stream covering every byte.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            self.out.push(Token {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Advances past the current (possibly multi-byte) UTF-8 character.
    fn bump_char(&mut self) {
        let ch = self.src[self.pos..].chars().next().expect("in bounds");
        if ch == '\n' {
            self.line += 1;
        }
        self.pos += ch.len_utf8();
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                while matches!(self.peek(0), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.bump();
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.bump();
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'\'' => self.char_or_lifetime(),
            b'"' => self.string(),
            _ if b.is_ascii_digit() => self.number(),
            _ if is_ident_start(b) || !b.is_ascii() => self.ident_or_prefixed(),
            _ => {
                self.bump();
                TokenKind::Punct
            }
        }
    }

    /// `/* … */` with arbitrary nesting depth.
    fn block_comment(&mut self) -> TokenKind {
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1usize;
        while self.pos < self.bytes.len() {
            if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return TokenKind::BlockComment;
                }
            } else {
                self.bump_char();
            }
        }
        TokenKind::Error // unterminated
    }

    /// Disambiguates `'a'` / `'\n'` (char) from `'a` / `'_` (lifetime).
    ///
    /// Grammar: after the opening quote, a backslash or a
    /// non-identifier character always means a char literal. An
    /// identifier-shaped body is a lifetime unless it is exactly one
    /// character long and immediately followed by a closing quote
    /// (`'x'`), which is a char literal. `'static`, `'_`, and labels
    /// like `'outer:` fall out as lifetimes.
    fn char_or_lifetime(&mut self) -> TokenKind {
        self.bump(); // '
        match self.peek(0) {
            Some(b'\\') => self.char_tail_after_escape(),
            Some(c) if is_ident_start(c) || c == b'_' || !c.is_ascii() => {
                // Scan the identifier-shaped body (chars, so 'π' works)
                // without committing. Non-ASCII chars fold into the
                // body like rustc's XID rules would.
                let mut len = 0;
                for ch in self.src[self.pos..].chars() {
                    let continues = len == 0 || !ch.is_ascii() || is_ident_continue(ch as u8);
                    if !continues {
                        break;
                    }
                    len += ch.len_utf8();
                }
                if self.bytes.get(self.pos + len) == Some(&b'\'') {
                    // 'x' or even 'abc' (invalid Rust, but lexically a
                    // char-ish quoted run) — consume through the quote.
                    let target = self.pos + len;
                    while self.pos < target {
                        self.bump_char();
                    }
                    self.bump();
                    TokenKind::Char
                } else {
                    // Lifetime: consume just the identifier body.
                    let target = self.pos + len;
                    while self.pos < target {
                        self.bump_char();
                    }
                    TokenKind::Lifetime
                }
            }
            Some(b'\'') => {
                // `''` — empty char literal (invalid Rust); consume both
                // quotes so we can't loop.
                self.bump();
                TokenKind::Error
            }
            Some(_) => {
                // Non-identifier single char: '+', ' ', '\u{..}' handled
                // above via escape; consume char then expect quote.
                self.bump_char();
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                    TokenKind::Char
                } else {
                    TokenKind::Error
                }
            }
            None => TokenKind::Error,
        }
    }

    /// After `'\`: consume the escape and the closing quote.
    fn char_tail_after_escape(&mut self) -> TokenKind {
        self.bump(); // backslash
        if self.peek(0).is_some() {
            self.bump_char(); // escaped char ( n, ', u, x, … )
        }
        // `\u{…}` / `\x..`: just scan to the closing quote; escapes
        // cannot contain quotes.
        while let Some(c) = self.peek(0) {
            if c == b'\'' {
                self.bump();
                return TokenKind::Char;
            }
            if c == b'\n' {
                break; // unterminated on this line
            }
            self.bump_char();
        }
        TokenKind::Error
    }

    /// `"…"` with escapes (escaped quotes, escaped backslashes,
    /// line-continuation backslash-newline).
    fn string(&mut self) -> TokenKind {
        self.bump(); // opening "
        while let Some(c) = self.peek(0) {
            match c {
                b'"' => {
                    self.bump();
                    return TokenKind::Str;
                }
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump_char();
                    }
                }
                _ => self.bump_char(),
            }
        }
        TokenKind::Error
    }

    /// `r"…"`, `r#"…"#`, … with `hashes` guard hashes already counted
    /// (cursor sits on the opening quote).
    fn raw_string(&mut self, hashes: usize) -> TokenKind {
        self.bump(); // opening "
        while let Some(c) = self.peek(0) {
            if c == b'"' {
                // Check for the full closing guard.
                let mut ok = true;
                for i in 0..hashes {
                    if self.bytes.get(self.pos + 1 + i) != Some(&b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    return TokenKind::Str;
                }
            }
            self.bump_char();
        }
        TokenKind::Error
    }

    /// Number: `0x…`/`0o…`/`0b…` or decimal with optional `.digits`,
    /// exponent, underscores, and a trailing type-suffix identifier.
    fn number(&mut self) -> TokenKind {
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.bump();
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_hexdigit() || c == b'_')
            {
                self.bump();
            }
        } else {
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_digit() || c == b'_')
            {
                self.bump();
            }
            // Fractional part only when followed by a digit: `1.max(2)`
            // and `0..n` must leave the dot to the next token.
            if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.bump();
                }
            }
            // Exponent: `1e9`, `2.5E-3`. Only consume when the shape is
            // a real exponent, else `1else` would eat the `e`.
            if matches!(self.peek(0), Some(b'e' | b'E')) {
                let sign = matches!(self.peek(1), Some(b'+' | b'-'));
                let digit_at = if sign { 2 } else { 1 };
                if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                    if sign {
                        self.bump();
                    }
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                    {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u32`, `f64`, `usize`) folds into the literal.
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        TokenKind::Number
    }

    /// Identifier, or one of the prefixed literal forms (`r"…"`,
    /// `r#"…"#`, `r#ident`, `b"…"`, `b'…'`, `br#"…"#`, `c"…"`, …).
    fn ident_or_prefixed(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        // Raw string / raw identifier: r" r#" r#ident
        if b == b'r' {
            if self.peek(1) == Some(b'"') {
                self.bump();
                return self.raw_string(0);
            }
            let mut h = 0;
            while self.peek(1 + h) == Some(b'#') {
                h += 1;
            }
            if h > 0 && self.peek(1 + h) == Some(b'"') {
                self.bump();
                for _ in 0..h {
                    self.bump();
                }
                return self.raw_string(h);
            }
            if h == 1
                && self
                    .peek(2)
                    .is_some_and(|c| is_ident_start(c) || !c.is_ascii())
            {
                // Raw identifier r#type: consume r, #, then the body.
                self.bump();
                self.bump();
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                return TokenKind::Ident;
            }
        }
        // Byte / C-string prefixes: b" b' br" br#" c" cr" cr#"
        if b == b'b' || b == b'c' {
            if self.peek(1) == Some(b'"') {
                self.bump();
                return self.string();
            }
            if b == b'b' && self.peek(1) == Some(b'\'') {
                self.bump();
                return self.char_or_lifetime();
            }
            if self.peek(1) == Some(b'r') {
                let mut h = 0;
                while self.peek(2 + h) == Some(b'#') {
                    h += 1;
                }
                if self.peek(2 + h) == Some(b'"') {
                    self.bump();
                    self.bump();
                    for _ in 0..h {
                        self.bump();
                    }
                    return self.raw_string(h);
                }
            }
        }
        // Plain identifier (multi-byte chars allowed mid-identifier;
        // we fold any non-ASCII into identifiers, which is what rustc's
        // XID rules do for all characters this repo will ever contain).
        while self
            .peek(0)
            .is_some_and(|c| is_ident_continue(c) || !c.is_ascii())
        {
            self.bump_char();
        }
        TokenKind::Ident
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexes and asserts the byte-for-byte round trip, returning the
    /// non-whitespace token (kind, text) pairs for shape assertions.
    fn shape(src: &str) -> Vec<(TokenKind, String)> {
        let toks = lex(src);
        let mut rebuilt = String::new();
        for t in &toks {
            rebuilt.push_str(t.text(src));
        }
        assert_eq!(rebuilt, src, "round trip failed");
        toks.iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        shape(src).into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn comments_including_nested_blocks() {
        use TokenKind::*;
        assert_eq!(
            kinds("// line\n/* a /* b */ c */ x"),
            [LineComment, BlockComment, Ident]
        );
        assert_eq!(
            kinds("/** doc */ /*! inner */"),
            [BlockComment, BlockComment]
        );
        // Unterminated nest is an Error token, not a hang.
        assert_eq!(kinds("/* /* */"), [Error]);
    }

    #[test]
    fn strings_hide_comment_markers_and_vice_versa() {
        use TokenKind::*;
        assert_eq!(
            kinds(r#"let s = "// not a comment";"#),
            [Ident, Ident, Punct, Str, Punct]
        );
        assert_eq!(kinds("/* \" not a string */ x"), [BlockComment, Ident]);
        assert_eq!(kinds(r#""esc \" quote""#), [Str]);
        assert_eq!(kinds(r#"b"bytes" c"cstr""#), [Str, Str]);
    }

    #[test]
    fn raw_strings_with_guards() {
        use TokenKind::*;
        assert_eq!(
            kinds(r###"r"plain" r#"one "quote" in"# x"###),
            [Str, Str, Ident]
        );
        let src = "r##\"has \"# inside\"## y";
        assert_eq!(kinds(src), [Str, Ident]);
        assert_eq!(kinds("br#\"raw bytes\"#"), [Str]);
        // A raw string containing unwrap() stays one Str token.
        let s = shape(r##"r#"panics: .unwrap() inside"#"##);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, Str);
    }

    #[test]
    fn chars_vs_lifetimes() {
        use TokenKind::*;
        assert_eq!(kinds("'a' 'x"), [Char, Lifetime]);
        assert_eq!(kinds("&'static str"), [Punct, Lifetime, Ident]);
        assert_eq!(
            kinds(r"'\'' '\\' '\n' '\u{1F600}'"),
            [Char, Char, Char, Char]
        );
        assert_eq!(kinds("'_  '_x"), [Lifetime, Lifetime]);
        assert_eq!(
            kinds("'outer: loop {}"),
            [Lifetime, Punct, Ident, Punct, Punct]
        );
        assert_eq!(kinds("b'\\xFF'"), [Char]);
        // Generic turbofish with lifetime then char.
        assert_eq!(
            kinds("f::<'a>('b')"),
            [Ident, Punct, Punct, Punct, Lifetime, Punct, Punct, Char, Punct]
        );
    }

    #[test]
    fn raw_identifiers() {
        use TokenKind::*;
        assert_eq!(
            shape("r#type r#match"),
            vec![(Ident, "r#type".into()), (Ident, "r#match".into())]
        );
        // r followed by # followed by quote is a raw string, not ident.
        assert_eq!(kinds("r#\"s\"#"), [Str]);
    }

    #[test]
    fn numbers() {
        use TokenKind::*;
        assert_eq!(kinds("0xFF_u32 0b1010 0o77 1_000_000usize"), [Number; 4]);
        assert_eq!(kinds("1.5e-3 2E9 1e9f64"), [Number; 3]);
        // Range and method-on-literal leave the dot alone.
        assert_eq!(kinds("0..10"), [Number, Punct, Punct, Number]);
        assert_eq!(
            kinds("1.max(2)"),
            [Number, Punct, Ident, Punct, Number, Punct]
        );
        assert_eq!(kinds("1.0f64"), [Number]);
        // `1else` style: e not followed by digits stays an ident.
        assert_eq!(
            kinds("for _ in 0..1e3 {}"),
            [Ident, Ident, Ident, Number, Punct, Punct, Number, Punct, Punct]
        );
    }

    #[test]
    fn line_numbers_are_1_based_and_accurate() {
        let src = "a\n\"two\nlines\"\nb";
        let toks: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .collect();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2); // multi-line string starts line 2
        assert_eq!(toks[2].line, 4); // b — after the string's newline
    }

    #[test]
    fn every_byte_is_covered_in_order() {
        let src = "fn main() { println!(\"π = {}\", 3.14); } // done";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos);
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn unterminated_string_is_error_not_panic() {
        let toks = lex("let s = \"oops");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Error);
    }
}
