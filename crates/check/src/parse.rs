//! Item parser: token stream → per-file symbol graph.
//!
//! This is not a Rust grammar — it is a flat, keyword-triggered scanner
//! that recovers exactly the structure the interprocedural rules need:
//! type definitions with their fields and the identifiers referenced in
//! each field's type, `type` aliases with the identifiers they name,
//! `impl` headers (a `pup_fields!` call counts as one), `fn` spans, inline `mod` spans
//! with their `const` members, and `use` edges. It parses *through*
//! bodies (items nested in functions and impls are still found) and
//! fails soft on anything it does not understand, which is the right
//! bias for a linter: an unparsed item produces no findings rather than
//! wrong ones.
//!
//! ## Annotation grammar
//!
//! Items pick up directives from their leading comment block (the same
//! contiguous comment/attribute climb the SAFETY rule uses). A directive
//! must be *anchored* — the comment's trimmed text starts with it — so
//! prose that merely mentions the grammar (like this paragraph) is
//! inert. The forms, documented here unanchored on purpose:
//!
//! - "flows-image" + `: root` — the type is a migration-image root; the
//!   closure rule starts its reachability walk here.
//! - "flows-image" + `: opaque <why>` — the type serializes itself (a
//!   hand-written `Pup` impl); the walk does not descend into its
//!   fields. The justification text is mandatory.
//! - "flows-wire" + `: defines <proto>` — on an inline `mod` (each
//!   `const` inside is one message tag) or an `enum` (each variant is
//!   one message).
//! - "flows-wire" + `: handles <proto>` — on the `fn` that dispatches
//!   that protocol; every message must be matched in some handler.
//!
//! (`flows-atomic` directives are line-scoped like waivers and are
//! parsed by the atomic-protocol rule, not here.)

use crate::lexer::Stripped;
use crate::tokens::{tokenize, Tok, TokKind};

/// An item-level annotation (see module docs for the grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemAnno {
    /// The type roots the migration-image closure walk.
    ImageRoot,
    /// The type hand-serializes itself; do not descend into fields.
    ImageOpaque,
    /// This mod/enum defines wire protocol `<name>`'s message set.
    WireDefines(String),
    /// This fn dispatches wire protocol `<name>`.
    WireHandles(String),
}

/// One field (or enum-variant payload slot) of a type.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// `name`, `Variant.name`, `0`, or `Variant.0`.
    pub name: String,
    /// 0-based line of the field.
    pub line: usize,
    /// The type text, re-rendered from tokens (for messages).
    pub ty_text: String,
    /// Every identifier appearing in the type (path segments included;
    /// resolution decides which matter).
    pub refs: Vec<String>,
    /// The type contains `*mut` / `*const`.
    pub raw_ptr: bool,
}

/// A struct or enum definition.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// The type name.
    pub name: String,
    /// 0-based line of the `struct`/`enum` keyword.
    pub line: usize,
    /// Enum rather than struct.
    pub is_enum: bool,
    /// Fields (for enums: variant payload slots, `Variant.`-prefixed).
    pub fields: Vec<FieldDef>,
    /// Enum variant names with their lines (empty for structs).
    pub variants: Vec<(String, usize)>,
    /// Annotations from the leading comment block.
    pub annos: Vec<ItemAnno>,
}

/// A `type Name<..> = Ty;` alias (associated types included).
#[derive(Debug, Clone)]
pub struct AliasDef {
    /// The alias name.
    pub name: String,
    /// 0-based line of the `type` keyword.
    pub line: usize,
    /// Every identifier appearing in the aliased type.
    pub refs: Vec<String>,
}

/// A function definition (free or associated).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based line of the body's closing brace (`line` if bodyless).
    pub end_line: usize,
    /// Signature text from name to body open, re-rendered from tokens.
    pub sig: String,
    /// Annotations from the leading comment block.
    pub annos: Vec<ItemAnno>,
}

/// An inline module (`mod name { ... }`).
#[derive(Debug, Clone)]
pub struct ModDef {
    /// The module name.
    pub name: String,
    /// 0-based line of the `mod` keyword.
    pub line: usize,
    /// 0-based line of the closing brace.
    pub end_line: usize,
    /// Annotations from the leading comment block.
    pub annos: Vec<ItemAnno>,
}

/// An `impl` header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait path's final segment, if a trait impl.
    pub trait_name: Option<String>,
    /// Self-type path's final segment, when it is a plain path.
    pub type_name: Option<String>,
    /// 0-based line of the `impl` keyword.
    pub line: usize,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// The raw token stream (rules scan it for match-site detection).
    pub toks: Vec<Tok>,
    /// Struct/enum definitions.
    pub types: Vec<TypeDef>,
    /// Type aliases.
    pub aliases: Vec<AliasDef>,
    /// Function definitions, free and associated.
    pub fns: Vec<FnDef>,
    /// Inline modules.
    pub mods: Vec<ModDef>,
    /// `const NAME` declarations as `(name, line)`.
    pub consts: Vec<(String, usize)>,
    /// Impl headers, `pup_fields!` calls included.
    pub impls: Vec<ImplDef>,
    /// `use` paths, re-rendered.
    pub uses: Vec<String>,
    /// Malformed annotation directives: `(line, message)`.
    pub anno_errors: Vec<(usize, String)>,
}

/// Parse one stripped file into its symbol table.
pub fn parse_file(stripped: &Stripped) -> FileSymbols {
    let toks = tokenize(stripped);
    let mut syms = FileSymbols::default();
    let mut i = 0;
    while i < toks.len() {
        let Some(word) = toks[i].ident() else {
            i += 1;
            continue;
        };
        i = match word {
            "struct" => parse_struct(&toks, i, stripped, &mut syms),
            "enum" => parse_enum(&toks, i, stripped, &mut syms),
            "type" => parse_alias(&toks, i, &mut syms),
            "impl" if !impl_in_type_position(&toks, i) => parse_impl(&toks, i, &mut syms),
            "fn" => parse_fn(&toks, i, stripped, &mut syms),
            "mod" => parse_mod(&toks, i, stripped, &mut syms),
            "const" => parse_const(&toks, i, &mut syms),
            "use" => parse_use(&toks, i, &mut syms),
            "pup_fields" => parse_pup_fields(&toks, i, &mut syms),
            "macro_rules" => skip_macro_rules(&toks, i),
            _ => i + 1,
        };
    }
    scan_anno_errors(stripped, &mut syms.anno_errors);
    syms.toks = toks;
    syms
}

/// `-> impl Trait`, `(impl Trait`, `: impl`, ... — `impl` used as a type,
/// not an item.
fn impl_in_type_position(t: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| t.get(p)) else {
        return false;
    };
    prev.is_punct("->")
        || prev.is_punct("(")
        || prev.is_punct(",")
        || prev.is_punct(":")
        || prev.is_punct("=")
        || prev.is_punct("&")
        || prev.is_punct("<")
        || prev.is_punct("+")
}

/// Index just past the delimiter group opened at `open` (`(`/`[`/`{`).
/// Returns `t.len()` on unbalanced input (fail soft).
fn skip_group(t: &[Tok], open: usize) -> usize {
    let (o, c) = match &t[open].kind {
        TokKind::Char('(') => ('(', ')'),
        TokKind::Char('[') => ('[', ']'),
        TokKind::Char('{') => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < t.len() {
        if let TokKind::Char(ch) = t[i].kind {
            if ch == o {
                depth += 1;
            } else if ch == c {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    t.len()
}

/// Index just past a generics group `<...>` opened at `i`; `i` itself if
/// there is none.
fn skip_generics(t: &[Tok], i: usize) -> usize {
    if !t.get(i).is_some_and(|x| x.is_punct("<")) {
        return i;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct("<") {
            depth += 1;
        } else if t[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t[j].is_punct(";") || t[j].is_punct("{") {
            // Unbalanced (comparison operator, not generics): bail where
            // the item structure resumes.
            return j;
        }
        j += 1;
    }
    t.len()
}

/// Render tokens back to readable text (for messages only).
fn render(t: &[Tok]) -> String {
    let mut out = String::new();
    for tok in t {
        let s: String = match &tok.kind {
            TokKind::Ident(s) => s.clone(),
            TokKind::Punct(p) => (*p).to_string(),
            TokKind::Char(c) => c.to_string(),
            TokKind::Num => "0".into(),
            TokKind::Lit => "\"..\"".into(),
            TokKind::Life => "'_".into(),
        };
        if !out.is_empty()
            && !matches!(s.as_str(), "," | ";" | ">" | ")" | "]" | "::")
            && !out.ends_with("::")
            && !out.ends_with('(')
            && !out.ends_with('<')
            && !out.ends_with('&')
            && !out.ends_with('*')
        {
            out.push(' ');
        }
        out.push_str(&s);
    }
    out
}

/// Scan one field's type tokens in `t[start..limit]`: stops at a
/// top-level `,` (delimiter and angle depth zero). Returns
/// `(next index, refs, raw_ptr, ty_text)`.
fn scan_field_type(t: &[Tok], start: usize, limit: usize) -> (usize, Vec<String>, bool, String) {
    let mut refs = Vec::new();
    let mut raw = false;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut m = start;
    while m < limit {
        match &t[m].kind {
            TokKind::Char('(') | TokKind::Char('[') | TokKind::Char('{') => depth += 1,
            TokKind::Char(')') | TokKind::Char(']') | TokKind::Char('}') => depth -= 1,
            TokKind::Char('<') => angle += 1,
            TokKind::Char('>') => angle = (angle - 1).max(0),
            TokKind::Char(',') if depth == 0 && angle == 0 => break,
            TokKind::Char('*')
                if t.get(m + 1).is_some_and(|n| n.is_ident("mut") || n.is_ident("const")) =>
            {
                raw = true;
            }
            TokKind::Ident(s) => refs.push(s.clone()),
            _ => {}
        }
        if depth < 0 {
            break;
        }
        m += 1;
    }
    let text = render(&t[start..m]);
    (m, refs, raw, text)
}

/// Parse the fields inside a `{ ... }` (named) or `( ... )` (tuple)
/// group at `open`, pushing into `fields` with an optional
/// `Variant.`-style prefix. Returns the index just past the group.
fn parse_fields(t: &[Tok], open: usize, prefix: &str, fields: &mut Vec<FieldDef>) -> usize {
    let named = t[open].is_punct("{");
    let close = skip_group(t, open) - 1;
    let mut k = open + 1;
    let mut tuple_idx = 0usize;
    while k < close {
        // Attributes and visibility are noise before a field.
        if t[k].is_punct("#") && t.get(k + 1).is_some_and(|n| n.is_punct("[")) {
            k = skip_group(t, k + 1);
            continue;
        }
        if t[k].is_ident("pub") {
            k += 1;
            if t.get(k).is_some_and(|n| n.is_punct("(")) {
                k = skip_group(t, k);
            }
            continue;
        }
        if named {
            let (Some(fname), true) = (
                t[k].ident().map(String::from),
                t.get(k + 1).is_some_and(|n| n.is_punct(":")),
            ) else {
                k += 1;
                continue;
            };
            let line = t[k].line;
            let (m, refs, raw, ty_text) = scan_field_type(t, k + 2, close);
            fields.push(FieldDef {
                name: format!("{prefix}{fname}"),
                line,
                ty_text,
                refs,
                raw_ptr: raw,
            });
            k = m + 1;
        } else {
            let line = t[k].line;
            let (m, refs, raw, ty_text) = scan_field_type(t, k, close);
            fields.push(FieldDef {
                name: format!("{prefix}{tuple_idx}"),
                line,
                ty_text,
                refs,
                raw_ptr: raw,
            });
            tuple_idx += 1;
            k = m + 1;
        }
    }
    close + 1
}

fn parse_struct(t: &[Tok], i: usize, stripped: &Stripped, out: &mut FileSymbols) -> usize {
    let decl_line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident().map(String::from)) else {
        return i + 1; // macro template (`struct $name`) — fail soft
    };
    let mut j = skip_generics(t, i + 2);
    // Tuple struct: the paren follows the name/generics immediately.
    if t.get(j).is_some_and(|x| x.is_punct("(")) {
        let mut fields = Vec::new();
        let end = parse_fields(t, j, "", &mut fields);
        out.types.push(TypeDef {
            name,
            line: decl_line,
            is_enum: false,
            fields,
            variants: Vec::new(),
            annos: collect_annos(stripped, decl_line),
        });
        return end;
    }
    // Skip a where-clause (whose bounds may contain parens/generics) to
    // the body brace or the unit-struct semicolon.
    while j < t.len() {
        if t[j].is_punct("{") {
            let mut fields = Vec::new();
            let end = parse_fields(t, j, "", &mut fields);
            out.types.push(TypeDef {
                name,
                line: decl_line,
                is_enum: false,
                fields,
                variants: Vec::new(),
                annos: collect_annos(stripped, decl_line),
            });
            return end;
        }
        if t[j].is_punct(";") {
            out.types.push(TypeDef {
                name,
                line: decl_line,
                is_enum: false,
                fields: Vec::new(),
                variants: Vec::new(),
                annos: collect_annos(stripped, decl_line),
            });
            return j + 1;
        }
        if t[j].is_punct("(") {
            j = skip_group(t, j);
        } else if t[j].is_punct("<") {
            j = skip_generics(t, j);
        } else {
            j += 1;
        }
    }
    t.len()
}

fn parse_enum(t: &[Tok], i: usize, stripped: &Stripped, out: &mut FileSymbols) -> usize {
    let decl_line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident().map(String::from)) else {
        return i + 1;
    };
    let mut j = skip_generics(t, i + 2);
    while j < t.len() && !t[j].is_punct("{") {
        if t[j].is_punct(";") {
            return j + 1;
        }
        j = if t[j].is_punct("(") { skip_group(t, j) } else { j + 1 };
    }
    if j >= t.len() {
        return t.len();
    }
    let close = skip_group(t, j) - 1;
    let mut fields = Vec::new();
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        if t[k].is_punct("#") && t.get(k + 1).is_some_and(|n| n.is_punct("[")) {
            k = skip_group(t, k + 1);
            continue;
        }
        let Some(vname) = t[k].ident().map(String::from) else {
            k += 1;
            continue;
        };
        variants.push((vname.clone(), t[k].line));
        k += 1;
        if k < close && (t[k].is_punct("(") || t[k].is_punct("{")) {
            k = parse_fields(t, k, &format!("{vname}."), &mut fields);
        }
        // Discriminant (`= expr`) and the trailing comma.
        while k < close && !t[k].is_punct(",") {
            k = if t[k].is_punct("(") { skip_group(t, k) } else { k + 1 };
        }
        k += 1;
    }
    out.types.push(TypeDef {
        name,
        line: decl_line,
        is_enum: true,
        fields,
        variants,
        annos: collect_annos(stripped, decl_line),
    });
    close + 1
}

fn parse_impl(t: &[Tok], i: usize, out: &mut FileSymbols) -> usize {
    let decl_line = t[i].line;
    let mut j = skip_generics(t, i + 1);
    // Header idents at angle/bracket depth zero, split at a top-level
    // `for` (HRTB `for<...>` is skipped, not a split).
    let mut before: Vec<String> = Vec::new();
    let mut after: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut angle = 0i32;
    while j < t.len() && !t[j].is_punct("{") && !t[j].is_punct(";") {
        if t[j].is_punct("<") {
            angle += 1;
        } else if t[j].is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t[j].is_punct("(") || t[j].is_punct("[") {
            j = skip_group(t, j);
            continue;
        } else if let Some(w) = t[j].ident() {
            if w == "for" && angle == 0 {
                if t.get(j + 1).is_some_and(|n| n.is_punct("<")) {
                    j = skip_generics(t, j + 1);
                    continue;
                }
                saw_for = true;
                j += 1;
                continue;
            }
            if angle == 0 && w != "where" && w != "dyn" && w != "mut" {
                if saw_for {
                    after.push(w.to_string());
                } else {
                    before.push(w.to_string());
                }
            }
            if w == "where" {
                // Bounds follow; idents after this are not the type.
                angle += 1000;
            }
        }
        j += 1;
    }
    let (trait_name, type_name) = if saw_for {
        (before.last().cloned(), after.last().cloned())
    } else {
        (None, before.last().cloned())
    };
    out.impls.push(ImplDef { trait_name, type_name, line: decl_line });
    // Continue scanning inside the impl body: methods become FnDefs.
    if j < t.len() && t[j].is_punct("{") {
        j + 1
    } else {
        j
    }
}

/// `macro_rules! name { .. }`: the body is a template over metavariables
/// (`impl $crate::Pup for $ty`), not items, so none of it is recorded.
fn skip_macro_rules(t: &[Tok], i: usize) -> usize {
    let def = t.get(i + 1).is_some_and(|x| x.is_punct("!")) && t.get(i + 2).is_some_and(|x| x.ident().is_some());
    if def && t.get(i + 3).is_some() {
        skip_group(t, i + 3)
    } else {
        i + 1
    }
}

/// `pup_fields!(X { .. })`, the macro bare or path-qualified, expands to
/// `impl Pup for X`: it is recorded as that impl.
fn parse_pup_fields(t: &[Tok], i: usize, out: &mut FileSymbols) -> usize {
    let call = t.get(i + 1).is_some_and(|x| x.is_punct("!"))
        && t.get(i + 2).is_some_and(|x| x.is_punct("("));
    if !call {
        return i + 1; // `use flows_pup::pup_fields;`, the macro's own definition
    }
    // The type path's final segment, before its generics or field list.
    let mut type_name = None;
    let mut j = i + 3;
    while let Some(tok) = t.get(j) {
        match tok.ident() {
            Some(w) => type_name = Some(w.to_string()),
            None if tok.is_punct("::") => {}
            None => break,
        }
        j += 1;
    }
    out.impls.push(ImplDef { trait_name: Some("Pup".into()), type_name, line: t[i].line });
    skip_group(t, i + 2)
}

fn parse_fn(t: &[Tok], i: usize, stripped: &Stripped, out: &mut FileSymbols) -> usize {
    let decl_line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident().map(String::from)) else {
        return i + 1; // `fn(...)` pointer type or macro template
    };
    let mut j = skip_generics(t, i + 2);
    if !t.get(j).is_some_and(|x| x.is_punct("(")) {
        return i + 1;
    }
    let args_end = skip_group(t, j);
    j = args_end;
    // Return type / where clause, up to the body or a bodyless `;`.
    while j < t.len() && !t[j].is_punct("{") && !t[j].is_punct(";") {
        j = match () {
            _ if t[j].is_punct("(") || t[j].is_punct("[") => skip_group(t, j),
            _ if t[j].is_punct("<") => skip_generics(t, j),
            _ => j + 1,
        };
    }
    let sig = render(&t[i + 1..j.min(t.len())]);
    let (end_line, resume) = if j < t.len() && t[j].is_punct("{") {
        let close = skip_group(t, j) - 1;
        let end = t.get(close).map(|x| x.line).unwrap_or(decl_line);
        // Resume just inside the body so nested items are still found.
        (end, j + 1)
    } else {
        (decl_line, j + 1)
    };
    out.fns.push(FnDef {
        name,
        line: decl_line,
        end_line,
        sig,
        annos: collect_annos(stripped, decl_line),
    });
    resume
}

fn parse_mod(t: &[Tok], i: usize, stripped: &Stripped, out: &mut FileSymbols) -> usize {
    let decl_line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident().map(String::from)) else {
        return i + 1;
    };
    match t.get(i + 2) {
        Some(x) if x.is_punct("{") => {
            let close = skip_group(t, i + 2) - 1;
            let end_line = t.get(close).map(|x| x.line).unwrap_or(decl_line);
            out.mods.push(ModDef {
                name,
                line: decl_line,
                end_line,
                annos: collect_annos(stripped, decl_line),
            });
            // Scan inside: member consts are wire messages.
            i + 3
        }
        _ => i + 2, // `mod name;` — out-of-line, nothing to span
    }
}

fn parse_alias(t: &[Tok], i: usize, out: &mut FileSymbols) -> usize {
    // `type Name<..> = Ty;` — a bodyless associated `type Item;` (or a
    // `where`-bounded one) records nothing.
    let Some(name) = t.get(i + 1).and_then(|x| x.ident().map(String::from)) else {
        return i + 1;
    };
    let j = skip_generics(t, i + 2);
    if !t.get(j).is_some_and(|x| x.is_punct("=")) {
        return i + 1;
    }
    let mut refs = Vec::new();
    let mut k = j + 1;
    while k < t.len() && !t[k].is_punct(";") {
        if let Some(w) = t[k].ident() {
            refs.push(w.to_string());
        }
        k += 1;
    }
    out.aliases.push(AliasDef { name, line: t[i].line, refs });
    k
}

fn parse_const(t: &[Tok], i: usize, out: &mut FileSymbols) -> usize {
    // `const NAME : Ty = ...` — requires the colon so `*const`, `const
    // fn`, and `const {}` blocks never trigger.
    let (Some(name), true) = (
        t.get(i + 1).and_then(|x| x.ident().map(String::from)),
        t.get(i + 2).is_some_and(|x| x.is_punct(":")),
    ) else {
        return i + 1;
    };
    out.consts.push((name, t[i + 1].line));
    i + 3
}

fn parse_use(t: &[Tok], i: usize, out: &mut FileSymbols) -> usize {
    let mut j = i + 1;
    while j < t.len() && !t[j].is_punct(";") {
        j += 1;
    }
    out.uses.push(render(&t[i + 1..j]));
    j + 1
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

/// Parse one anchored directive out of a comment's trimmed text.
/// `None`: not a directive. `Some(Err)`: malformed.
fn parse_directive(comment: &str) -> Option<Result<ItemAnno, String>> {
    let text = comment.trim();
    if let Some(rest) = text.strip_prefix("flows-image:") {
        let rest = rest.trim();
        if rest == "root" {
            return Some(Ok(ItemAnno::ImageRoot));
        }
        if let Some(reason) = rest.strip_prefix("opaque") {
            let reason = reason.trim_start_matches([' ', '\t', '-', ':', '—', '–']).trim();
            if reason.is_empty() {
                return Some(Err(
                    "`flows-image: opaque` requires a justification (why the hand-written \
                     serializer captures or rebuilds this state)"
                        .into(),
                ));
            }
            return Some(Ok(ItemAnno::ImageOpaque));
        }
        return Some(Err(format!(
            "unknown flows-image directive `{}` (expected `root` or `opaque <why>`)",
            rest.split_whitespace().next().unwrap_or("")
        )));
    }
    if let Some(rest) = text.strip_prefix("flows-wire:") {
        let mut words = rest.split_whitespace();
        let verb = words.next().unwrap_or("");
        let proto: String = words
            .next()
            .unwrap_or("")
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if proto.is_empty() {
            return Some(Err(format!("flows-wire `{verb}` names no protocol")));
        }
        return match verb {
            "defines" => Some(Ok(ItemAnno::WireDefines(proto))),
            "handles" => Some(Ok(ItemAnno::WireHandles(proto))),
            _ => Some(Err(format!(
                "unknown flows-wire directive `{verb}` (expected `defines <proto>` or \
                 `handles <proto>`)"
            ))),
        };
    }
    None
}

/// Gather the valid directives attached to the item declared on
/// `decl_line`: its own trailing comment plus the contiguous
/// comment/attribute block above.
fn collect_annos(stripped: &Stripped, decl_line: usize) -> Vec<ItemAnno> {
    let mut annos = Vec::new();
    let mut take = |line: usize| {
        if let Some(Ok(a)) = parse_directive(&stripped.comments[line]) {
            annos.push(a);
        }
    };
    take(decl_line);
    let mut j = decl_line;
    while j > 0 {
        j -= 1;
        let has_comment = !stripped.comments[j].is_empty();
        let code = &stripped.code[j];
        if !has_comment && !crate::is_transparent(code) {
            break;
        }
        if !code.trim().is_empty() && !crate::is_transparent(code) {
            // Trailing comment of an unrelated code line: not ours.
            break;
        }
        if has_comment {
            take(j);
        }
    }
    annos
}

/// Whole-file pass reporting malformed directives exactly once, whether
/// or not they sit above an item.
fn scan_anno_errors(stripped: &Stripped, errors: &mut Vec<(usize, String)>) {
    for (i, comment) in stripped.comments.iter().enumerate() {
        if comment.is_empty() {
            continue;
        }
        if let Some(Err(msg)) = parse_directive(comment) {
            errors.push((i, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn parse(src: &str) -> FileSymbols {
        parse_file(&strip(src))
    }

    #[test]
    fn struct_fields_and_refs() {
        let s = parse(
            "pub struct RankBox {\n    pub tid: ThreadId,\n    pub send_seq: HashMap<u64, u64>,\n    raw: *mut u8,\n}\n",
        );
        assert_eq!(s.types.len(), 1);
        let t = &s.types[0];
        assert_eq!(t.name, "RankBox");
        assert_eq!(t.fields.len(), 3);
        assert_eq!(t.fields[0].name, "tid");
        assert!(t.fields[1].refs.contains(&"HashMap".to_string()));
        assert!(t.fields[2].raw_ptr);
    }

    #[test]
    fn tuple_unit_and_generic_structs() {
        let s = parse(
            "struct Wrap(pub Arc<Inner>, usize);\nstruct Unit;\nstruct G<T: Clone> where T: Send { x: T }\n",
        );
        assert_eq!(s.types.len(), 3);
        assert_eq!(s.types[0].fields[0].name, "0");
        assert!(s.types[0].fields[0].refs.contains(&"Inner".to_string()));
        assert!(s.types[1].fields.is_empty());
        assert_eq!(s.types[2].fields[0].refs, vec!["T".to_string()]);
    }

    #[test]
    fn enum_variants_and_payloads() {
        let s = parse(
            "enum FlavorData {\n    Standard { stack: Vec<u8> },\n    Iso(Box<ThreadSlab>),\n    Lazy = 3,\n}\n",
        );
        let t = &s.types[0];
        assert!(t.is_enum);
        assert_eq!(t.variants.len(), 3);
        assert_eq!(t.fields[0].name, "Standard.stack");
        assert_eq!(t.fields[1].name, "Iso.0");
        assert!(t.fields[1].refs.contains(&"ThreadSlab".to_string()));
    }

    #[test]
    fn impls_fns_mods_consts() {
        let s = parse(
            "impl flows_pup::Pup for Tcb {\n    fn size(&self) -> usize { 0 }\n}\nmod ctrl {\n    pub const STATS: u8 = 1;\n}\nfn free() -> impl Iterator<Item = u8> { std::iter::empty() }\n",
        );
        assert_eq!(s.impls.len(), 1);
        assert_eq!(s.impls[0].trait_name.as_deref(), Some("Pup"));
        assert_eq!(s.impls[0].type_name.as_deref(), Some("Tcb"));
        assert_eq!(s.fns.len(), 2, "method + free fn, no phantom `impl Iterator` item");
        assert_eq!(s.mods.len(), 1);
        assert_eq!(s.consts, vec![("STATS".to_string(), 4)]);
    }

    #[test]
    fn pup_fields_calls_are_pup_impls() {
        let s = parse(
            "use flows_pup::pup_fields;\npup_fields!(A { x });\nflows_pup::pup_fields!(crate::m::B<u8> { y, z });\n",
        );
        let pup: Vec<_> = s
            .impls
            .iter()
            .map(|i| (i.trait_name.as_deref(), i.type_name.as_deref(), i.line))
            .collect();
        assert_eq!(pup, vec![(Some("Pup"), Some("A"), 1), (Some("Pup"), Some("B"), 2)]);
    }

    #[test]
    fn macro_rules_bodies_yield_no_items() {
        let s = parse(
            "macro_rules! pup_fields {\n    ($ty:ty { $($field:ident),* }) => {\n        impl $crate::Pup for $ty {\n            fn pup(&mut self) { struct Inner { x: u8 } }\n        }\n    };\n}\nstruct After { y: u8 }\n",
        );
        assert!(s.impls.is_empty(), "{:?}", s.impls);
        assert!(s.fns.is_empty());
        assert_eq!(s.types.len(), 1);
        assert_eq!(s.types[0].name, "After");
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let s = parse("fn a() {\n    let x = 1;\n    drop(x);\n}\nfn b() {}\n");
        assert_eq!(s.fns[0].line, 0);
        assert_eq!(s.fns[0].end_line, 3);
        assert_eq!(s.fns[1].line, 4);
    }

    #[test]
    fn annotations_attach_through_attr_blocks() {
        let s = parse(
            "// flows-image: root\n#[derive(Debug)]\npub struct Tcb { id: u64 }\n\n// flows-wire: defines net-ctrl\nmod ctrl { pub const A: u8 = 1; }\n\n// flows-wire: handles net-ctrl\nfn pump() {}\n",
        );
        assert_eq!(s.types[0].annos, vec![ItemAnno::ImageRoot]);
        assert_eq!(s.mods[0].annos, vec![ItemAnno::WireDefines("net-ctrl".into())]);
        assert_eq!(s.fns[0].annos, vec![ItemAnno::WireHandles("net-ctrl".into())]);
    }

    #[test]
    fn malformed_directives_are_errors() {
        let s = parse("// flows-image: opaque\nstruct A;\n// flows-wire: dispatches x\nfn f() {}\n");
        assert_eq!(s.anno_errors.len(), 2);
        // The bad opaque is not silently honored as an annotation.
        assert!(s.types[0].annos.is_empty());
    }

    #[test]
    fn unanchored_mentions_are_inert() {
        let s = parse("// see the `flows-image: root` marker on Tcb\nstruct B { x: u8 }\n");
        assert!(s.types[0].annos.is_empty());
        assert!(s.anno_errors.is_empty());
    }
}
