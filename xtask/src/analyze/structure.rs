//! Item/block structure pass over the token stream.
//!
//! Walks the lexed tokens once, matching braces and capturing
//! attributes, and annotates **every token** with:
//!
//! * whether it sits inside test-only code (`#[cfg(test)]` items,
//!   `#[test]` functions — flag [`IN_TEST`]);
//! * whether it sits inside debug-guard code (`#[cfg(debug_assertions)]`
//!   items, `if cfg!(debug_assertions) { … }` blocks, and the argument
//!   lists of `debug_assert…!` macros — flag [`IN_DEBUG`]);
//! * the name of the innermost enclosing `fn`, so rules can scope
//!   themselves to specific functions (the `Detector` phase functions)
//!   without re-parsing.
//!
//! The pass is deliberately a structural approximation, not a parser:
//! every `{ … }` opens a frame that inherits its parent's flags, and an
//! item keyword (`fn`/`mod`/`impl`/…) plus the attributes accumulated
//! since the last item boundary determine the extra flags its body
//! frame gets. That is exact for this repo's style and degrades
//! gracefully (never panics, flags just stay inherited) on exotic
//! shapes like braces inside const-generic positions.

use super::lexer::{Token, TokenKind};

/// Token is inside test-only code.
pub(crate) const IN_TEST: u8 = 1 << 0;
/// Token is inside a debug-assertion guard (compiled out in release).
pub(crate) const IN_DEBUG: u8 = 1 << 1;

/// Sentinel for "not inside any named fn".
pub(crate) const NO_FN: u32 = u32::MAX;

/// Per-token structural context for one file.
pub(crate) struct Structure {
    /// Flag bits per token (same indexing as the token stream).
    pub flags: Vec<u8>,
    /// Index into `fn_names` of the innermost enclosing named `fn`,
    /// or `NO_FN`. Same indexing as the token stream.
    pub fn_of: Vec<u32>,
    /// Distinct enclosing-function names, in first-seen order.
    pub fn_names: Vec<String>,
}

impl Structure {
    /// Flags for token `i` (0 if out of range — callers may probe the
    /// virtual end-of-file position).
    pub(crate) fn flags_at(&self, i: usize) -> u8 {
        self.flags.get(i).copied().unwrap_or(0)
    }

    /// Name of the innermost `fn` containing token `i`, if any.
    pub(crate) fn fn_at(&self, i: usize) -> Option<&str> {
        let idx = self.fn_of.get(i).copied().unwrap_or(NO_FN);
        if idx == NO_FN {
            None
        } else {
            Some(&self.fn_names[idx as usize])
        }
    }
}

/// Item keywords whose following `{` owns the pending attributes.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "mod", "impl", "trait", "struct", "enum", "union", "extern",
];

/// One entry in the brace stack.
#[derive(Clone, Copy)]
struct Frame {
    flags: u8,
    fn_idx: u32,
}

/// Computes per-token context for `tokens` lexed from `src`.
pub(crate) fn analyze(src: &str, tokens: &[Token]) -> Structure {
    let mut flags = vec![0u8; tokens.len()];
    let mut fn_of = vec![NO_FN; tokens.len()];
    let mut fn_names: Vec<String> = Vec::new();

    let mut stack: Vec<Frame> = vec![Frame {
        flags: 0,
        fn_idx: NO_FN,
    }];

    // Attributes seen since the last item boundary, and what they
    // contribute to the next item's body frame.
    let mut pending_attr_flags: u8 = 0;
    // Set when an item keyword was seen: Some((extra flags, fn name)).
    let mut pending_item: Option<(u8, Option<String>)> = None;
    // Set when `cfg!(debug_assertions)` was seen at this nesting level;
    // the next `{` additionally gets IN_DEBUG.
    let mut pending_cfg_debug = false;
    // While > 0 we are inside `debug_assert…!( … )`: tracks the paren
    // depth at which the macro's argument list closes.
    let mut debug_macro_depth: Option<usize> = None;
    let mut paren_depth = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        // Stamp current context on every token (trivia included, so
        // comment-based waivers know their surroundings too).
        let top = *stack.last().expect("root frame never pops");
        let mut f = top.flags;
        if debug_macro_depth.is_some() {
            f |= IN_DEBUG;
        }
        flags[i] = f;
        fn_of[i] = top.fn_idx;

        match t.kind {
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment => {
                i += 1;
                continue;
            }
            _ => {}
        }

        let text = t.text(src);
        match (t.kind, text) {
            (TokenKind::Punct, "#") => {
                // `#[ … ]` outer attribute (also `#![ … ]` inner: treat
                // its cfg flags as applying to the current frame).
                let mut j = next_code(tokens, i + 1);
                let inner = matches!(tokens.get(j), Some(n) if n.kind == TokenKind::Punct && n.text(src) == "!");
                if inner {
                    j = next_code(tokens, j + 1);
                }
                if matches!(tokens.get(j), Some(n) if n.kind == TokenKind::Punct && n.text(src) == "[")
                {
                    let (attr_flags, end) = scan_attr(src, tokens, j);
                    // Stamp the attr's own tokens with current context.
                    for k in i..=end.min(tokens.len() - 1) {
                        flags[k] = f;
                        fn_of[k] = top.fn_idx;
                    }
                    if inner {
                        stack.last_mut().expect("root").flags |= attr_flags;
                    } else {
                        pending_attr_flags |= attr_flags;
                    }
                    i = end + 1;
                    continue;
                }
            }
            (TokenKind::Ident, kw) if ITEM_KEYWORDS.contains(&kw) => {
                let extra = pending_attr_flags;
                let mut name = None;
                if kw == "fn" {
                    if let Some(n) = tokens.get(next_code(tokens, i + 1)) {
                        if n.kind == TokenKind::Ident {
                            name = Some(n.text(src).to_string());
                        } else {
                            // `fn(` in type position: not an item.
                            i += 1;
                            continue;
                        }
                    }
                }
                pending_item = Some((extra, name));
                pending_attr_flags = 0;
            }
            (TokenKind::Ident, "cfg") => {
                // `cfg!(debug_assertions)` guard expression: the block
                // it guards is debug-only. (Attribute `#[cfg(…)]` went
                // through the `#` arm above, so bare `cfg` + `!` here
                // is the macro.)
                let j = next_code(tokens, i + 1);
                if matches!(tokens.get(j), Some(n) if n.kind == TokenKind::Punct && n.text(src) == "!")
                    && attr_group_mentions(
                        src,
                        tokens,
                        next_code(tokens, j + 1),
                        "debug_assertions",
                    )
                {
                    pending_cfg_debug = true;
                }
            }
            (TokenKind::Ident, id) if id.starts_with("debug_assert") => {
                // `debug_assert!(…)` / `debug_assert_eq!(…)`: argument
                // list is debug-only. Flag until its parens close.
                let j = next_code(tokens, i + 1);
                if matches!(tokens.get(j), Some(n) if n.kind == TokenKind::Punct && n.text(src) == "!")
                    && debug_macro_depth.is_none()
                {
                    debug_macro_depth = Some(paren_depth);
                }
            }
            (TokenKind::Punct, "(") => paren_depth += 1,
            (TokenKind::Punct, ")") => {
                paren_depth = paren_depth.saturating_sub(1);
                if debug_macro_depth == Some(paren_depth) {
                    debug_macro_depth = None;
                }
            }
            (TokenKind::Punct, "{") => {
                let mut frame = *stack.last().expect("root");
                if let Some((extra, name)) = pending_item.take() {
                    frame.flags |= extra;
                    if let Some(name) = name {
                        let idx = fn_names.iter().position(|n| *n == name).unwrap_or_else(|| {
                            fn_names.push(name);
                            fn_names.len() - 1
                        });
                        frame.fn_idx = idx as u32;
                    }
                } else {
                    frame.flags |= pending_attr_flags;
                }
                if pending_cfg_debug {
                    frame.flags |= IN_DEBUG;
                    pending_cfg_debug = false;
                }
                pending_attr_flags = 0;
                stack.push(frame);
                // The `{` itself belongs to the new frame, so rules
                // that span "the body" see consistent flags.
                flags[i] = frame.flags | (f & IN_DEBUG);
                fn_of[i] = frame.fn_idx;
            }
            (TokenKind::Punct, "}") if stack.len() > 1 => {
                stack.pop();
            }
            (TokenKind::Punct, ";") => {
                // Item without a body (`mod x;`, `use …;`, extern fn
                // declarations): drop anything pending.
                pending_item = None;
                pending_attr_flags = 0;
            }
            _ => {}
        }
        i += 1;
    }

    Structure {
        flags,
        fn_of,
        fn_names,
    }
}

/// Index of the next non-trivia token at or after `i`.
fn next_code(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len()
        && matches!(
            tokens[i].kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    {
        i += 1;
    }
    i
}

/// Scans an attribute's bracket group starting at the `[` token index.
/// Returns the flag bits the attribute contributes and the index of the
/// closing `]`.
fn scan_attr(src: &str, tokens: &[Token], open: usize) -> (u8, usize) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text(src) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(t.text(src));
        }
        j += 1;
    }
    let mut flags = 0u8;
    match idents.first().copied() {
        // `#[cfg(test)]`, `#[cfg(any(test, …))]` — any cfg mentioning
        // the bare `test` predicate gates test-only code. `#[cfg_attr]`
        // conditions don't remove code, so they contribute nothing.
        Some("cfg") => {
            if idents.contains(&"test") {
                flags |= IN_TEST;
            }
            if idents.contains(&"debug_assertions") {
                flags |= IN_DEBUG;
            }
        }
        // `#[test]` / `#[should_panic]` mark the fn itself as test code.
        Some("test" | "should_panic") => flags |= IN_TEST,
        _ => {}
    }
    (flags, j.min(tokens.len().saturating_sub(1)))
}

/// True if the paren group starting at token `open` (must be `(`)
/// contains `word` as an identifier.
fn attr_group_mentions(src: &str, tokens: &[Token], open: usize, word: &str) -> bool {
    if !matches!(tokens.get(open), Some(t) if t.kind == TokenKind::Punct && t.text(src) == "(") {
        return false;
    }
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text(src) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && t.text(src) == word {
            return true;
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;

    /// Returns the flags and fn-name at the first token whose text is
    /// `needle`.
    fn at(src: &str, needle: &str) -> (u8, Option<String>) {
        let toks = lex(src);
        let s = analyze(src, &toks);
        let i = toks
            .iter()
            .position(|t| t.text(src) == needle)
            .unwrap_or_else(|| panic!("token {needle:?} not found"));
        (s.flags_at(i), s.fn_at(i).map(str::to_string))
    }

    #[test]
    fn cfg_test_mod_bodies_are_test_scope() {
        let src = "fn lib() { body(); }\n#[cfg(test)]\nmod tests {\n fn t() { probe(); }\n}\n";
        assert_eq!(at(src, "body").0, 0);
        let (f, fun) = at(src, "probe");
        assert_eq!(f & IN_TEST, IN_TEST);
        assert_eq!(fun.as_deref(), Some("t"));
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn check() { inside(); }\nfn after() { outside(); }\n";
        assert_eq!(at(src, "inside").0 & IN_TEST, IN_TEST);
        assert_eq!(at(src, "outside").0, 0);
    }

    #[test]
    fn cfg_any_including_test_counts() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod harness { fn f() { probe(); } }\n";
        assert_eq!(at(src, "probe").0 & IN_TEST, IN_TEST);
    }

    #[test]
    fn debug_assert_args_are_debug_scope() {
        let src = "fn f() { debug_assert_eq!(g().unwrap(), 3); after(); }\n";
        let toks = lex(src);
        let s = analyze(src, &toks);
        let unwrap_i = toks.iter().position(|t| t.text(src) == "unwrap").unwrap();
        assert_eq!(s.flags_at(unwrap_i) & IN_DEBUG, IN_DEBUG);
        let after_i = toks.iter().position(|t| t.text(src) == "after").unwrap();
        assert_eq!(s.flags_at(after_i) & IN_DEBUG, 0);
    }

    #[test]
    fn cfg_macro_guard_marks_block() {
        let src = "fn f() { if cfg!(debug_assertions) { costly_check(); } normal(); }\n";
        assert_eq!(at(src, "costly_check").0 & IN_DEBUG, IN_DEBUG);
        assert_eq!(at(src, "normal").0 & IN_DEBUG, 0);
    }

    #[test]
    fn cfg_debug_assertions_attr_marks_item() {
        let src = "#[cfg(debug_assertions)]\nfn slow_path() { probe(); }\n";
        assert_eq!(at(src, "probe").0 & IN_DEBUG, IN_DEBUG);
    }

    #[test]
    fn innermost_fn_name_wins() {
        let src = "fn outer() { fn inner() { probe(); } other(); }\n";
        assert_eq!(at(src, "probe").1.as_deref(), Some("inner"));
        assert_eq!(at(src, "other").1.as_deref(), Some("outer"));
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let src = "fn real() { let g: fn(u32) -> u32 = id; S { x: probe() }; }\n";
        assert_eq!(at(src, "probe").1.as_deref(), Some("real"));
    }

    #[test]
    fn flags_inherit_through_expression_braces() {
        let src = "#[cfg(test)]\nmod tests { fn t() { if x { match y { _ => probe() } } } }\n";
        let (f, fun) = at(src, "probe");
        assert_eq!(f & IN_TEST, IN_TEST);
        assert_eq!(fun.as_deref(), Some("t"));
    }

    #[test]
    fn attrs_cleared_by_semicolon_items() {
        // The cfg(test) on `mod helper;` must not leak onto `lib`.
        let src = "#[cfg(test)]\nmod helper;\nfn lib() { probe(); }\n";
        assert_eq!(at(src, "probe").0, 0);
    }

    #[test]
    fn impl_block_methods_keep_fn_names() {
        let src = "impl Foo {\n fn method(&self) { probe(); }\n}\n";
        assert_eq!(at(src, "probe").1.as_deref(), Some("method"));
    }
}
