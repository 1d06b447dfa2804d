//! The public surface matches its users: every `pub` function, struct,
//! enum, trait, type alias and constant of a crate's library
//! (`crates/<c>/src/`, `src/bin/` excluded) is named outside that library —
//! by another crate, the crate's own `tests/` or `src/bin/` (separate crates
//! that hold reference checks), a root test, an example or the benchmark. An
//! item that only its own crate names is private in all but spelling:
//! delete it or narrow it to `pub(crate)`/private. A `pub use` inside the
//! library is not a user.
//!
//! The scan is textual (std only): a declaration is a line whose code starts
//! with `pub fn` (after optional `const`/`unsafe`/`async`), `pub struct`,
//! `pub enum`, `pub trait`, `pub type` or `pub const`, and a use is the
//! same identifier, on word boundaries, anywhere in a file under `crates/`,
//! `src/`, `tests/`, `examples/` or `benchmark/` outside the library
//! (`target/` directories skipped). An invocation of a `#[macro_export]`
//! macro outside the library names every identifier of the macro's body,
//! since its expansion does. A type or const also passes when a
//! passing item of its library reaches it: named in a `pub fn`'s signature,
//! a struct's `pub` field, an enum variant's field or a type alias's
//! right-hand side. A method does not reach the type of its own `impl`
//! block (a caller names that type to call `Type::new`), and a `pub fn`
//! gets no such pass.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Component, Path, PathBuf};

const SEARCHED: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark"];

/// Item keywords, `fn` first so `pub const fn` is a function.
const KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier in `text`.
fn identifiers(text: &str) -> BTreeSet<&str> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.insert(&text[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// The keyword, name and remaining text of the `pub` item `code` declares.
fn pub_item(code: &str) -> Option<(&'static str, &str, &str)> {
    let item = code.strip_prefix("pub ")?;
    KINDS.iter().find_map(|&kind| {
        let mut rest = item;
        if kind == "fn" {
            for qualifier in ["const ", "unsafe ", "async "] {
                rest = rest.strip_prefix(qualifier).unwrap_or(rest);
            }
        }
        let rest = rest.strip_prefix(kind)?.strip_prefix(' ')?;
        let end = rest.bytes().position(|b| !is_ident_byte(b))?;
        Some((kind, &rest[..end], &rest[end..]))
    })
}

/// A `pub` item: its keyword, its name, the identifiers a caller reaches
/// through it and, for a method, the type of its `impl` block.
struct Item<'t> {
    kind: &'static str,
    name: &'t str,
    reaches: BTreeSet<&'t str>,
    of: Option<&'t str>,
}

/// The type an `impl` line implements for: `X` in `impl<T> X<T> {` and in
/// `impl<T> Trait for X<T> {`.
fn impl_self(code: &str) -> Option<&str> {
    let mut rest = code.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.bytes().position(|b| {
            depth += i32::from(b == b'<') - i32::from(b == b'>');
            depth == 0
        })?;
        rest = &rest[end + 1..];
    }
    let rest = rest.strip_prefix(' ')?;
    let rest = rest.rsplit_once(" for ").map_or(rest, |(_, ty)| ty);
    let end = rest.bytes().position(|b| !is_ident_byte(b))?;
    Some(&rest[..end])
}

/// What the lines after an item's declaration line still belong to.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    /// A `pub fn` signature that has not reached its `{` or `;`.
    Signature,
    /// A struct's fields, up to the `}` at this indent.
    Fields(usize),
    /// An enum's variants, up to the `}` at this indent.
    Variants(usize),
}

/// The `pub` items `text` declares.
fn items(text: &str) -> Vec<Item<'_>> {
    let mut out: Vec<Item> = Vec::new();
    let mut open = None;
    // The type of the `impl` block the line is in, and that block's indent.
    let mut of: Option<(&str, usize)> = None;
    for line in text.lines() {
        let code = line.trim_start();
        let indent = line.len() - code.len();
        if of.is_some_and(|(_, at)| at == indent && code.starts_with('}')) {
            of = None;
        } else if let Some(ty) = impl_self(code).filter(|_| code.ends_with('{')) {
            of = Some((ty, indent));
        }
        let signature_ends = code.contains('{') || code.ends_with(';');
        if let Some(body) = open {
            let reaches = &mut out.last_mut().expect("an open item").reaches;
            match body {
                Body::Signature => {
                    reaches.extend(identifiers(code.split('{').next().unwrap_or(code)));
                    if signature_ends {
                        open = None;
                    }
                }
                Body::Fields(close) | Body::Variants(close)
                    if indent == close && code.starts_with('}') =>
                {
                    open = None
                }
                Body::Fields(_) => {
                    if let Some((field, ty)) =
                        code.strip_prefix("pub ").and_then(|r| r.split_once(':'))
                    {
                        if field.bytes().all(is_ident_byte) {
                            reaches.extend(identifiers(ty));
                        }
                    }
                }
                Body::Variants(_) => {
                    if !code.starts_with("//") && !code.starts_with('#') {
                        reaches.extend(identifiers(code));
                    }
                }
            }
            continue;
        }
        let Some((kind, name, rest)) = pub_item(code) else {
            continue;
        };
        let mut reaches = BTreeSet::new();
        match kind {
            "fn" => {
                let params = rest.split_once('(').map_or("", |(_, p)| p);
                reaches.extend(identifiers(params.split('{').next().unwrap_or(params)));
                open = (!signature_ends).then_some(Body::Signature);
            }
            "struct" if rest.starts_with('(') => reaches.extend(identifiers(rest)),
            "struct" if code.ends_with('{') => open = Some(Body::Fields(indent)),
            "enum" if code.ends_with('{') => open = Some(Body::Variants(indent)),
            "type" => reaches.extend(identifiers(rest.split_once('=').map_or("", |(_, t)| t))),
            _ => {}
        }
        out.push(Item {
            kind,
            name,
            reaches,
            of: of.filter(|_| kind == "fn").map(|(ty, _)| ty),
        });
    }
    out
}

/// Each `#[macro_export]` macro of `text`, with the identifiers of its body
/// (up to the `}` that closes it at column 0).
fn exported_macros(text: &str) -> Vec<(&str, BTreeSet<&str>)> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[macro_export]" {
            continue;
        }
        let Some(rest) = lines.next().and_then(|l| l.strip_prefix("macro_rules! ")) else {
            continue;
        };
        let end = rest
            .bytes()
            .position(|b| !is_ident_byte(b))
            .unwrap_or(rest.len());
        let body = lines
            .by_ref()
            .take_while(|l| *l != "}")
            .flat_map(identifiers)
            .collect();
        out.push((&rest[..end], body));
    }
    out
}

/// The crate whose library `path` belongs to: `crates/<c>/src/`, but not
/// `src/bin/`.
fn library<'p>(crates: &Path, path: &'p Path) -> Option<&'p str> {
    let parts: Vec<_> = path.strip_prefix(crates).ok()?.components().collect();
    match parts.as_slice() {
        [Component::Normal(krate), Component::Normal(src), rest @ ..]
            if *src == "src" && rest.first().is_some_and(|c| c.as_os_str() != "bin") =>
        {
            krate.to_str()
        }
        _ => None,
    }
}

/// Fails, listing them, on every `pub` item of `kinds` in a crate's library
/// that nothing outside the library names or reaches; at least `min` must
/// be declared, so a broken scan cannot pass.
fn check_named_outside_the_crate(kinds: &[&str], min: usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SEARCHED {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: BTreeMap<PathBuf, String> = files
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            (p, text)
        })
        .collect();
    let crates = root.join("crates");

    let mut libraries: BTreeMap<&str, Vec<(&Path, Item)>> = BTreeMap::new();
    let mut macros: BTreeMap<&str, Vec<(&str, BTreeSet<&str>)>> = BTreeMap::new();
    for (path, text) in &texts {
        if let Some(krate) = library(&crates, path) {
            let declared = libraries.entry(krate).or_default();
            declared.extend(items(text).into_iter().map(|item| (path.as_path(), item)));
            macros
                .entry(krate)
                .or_default()
                .extend(exported_macros(text));
        }
    }

    let mut declared = 0;
    let mut unused = Vec::new();
    for (krate, items) in &libraries {
        let mut outside: BTreeSet<&str> = texts
            .iter()
            .filter(|(path, _)| library(&crates, path) != Some(krate))
            .flat_map(|(_, text)| identifiers(text))
            .collect();
        let expanded: Vec<&str> = macros
            .get(krate)
            .into_iter()
            .flatten()
            .filter(|(name, _)| outside.contains(name))
            .flat_map(|(_, body)| body.iter().copied())
            .collect();
        outside.extend(expanded);
        let mut passing: BTreeSet<&str> = items
            .iter()
            .map(|(_, item)| item.name)
            .filter(|name| outside.contains(name))
            .collect();
        // Only a type or const is reached through an item that names it.
        let reachable: BTreeSet<&str> = items
            .iter()
            .filter(|(_, item)| item.kind != "fn")
            .map(|(_, item)| item.name)
            .collect();
        loop {
            let reached: Vec<&str> = items
                .iter()
                .filter(|(_, item)| passing.contains(item.name))
                .flat_map(|(_, item)| item.reaches.iter().filter(|&&r| Some(r) != item.of))
                .copied()
                .filter(|name| reachable.contains(name) && !passing.contains(name))
                .collect();
            if reached.is_empty() {
                break;
            }
            passing.extend(reached);
        }
        for (path, item) in items.iter().filter(|(_, i)| kinds.contains(&i.kind)) {
            declared += 1;
            if !passing.contains(item.name) {
                unused.push(format!(
                    "{} ({})",
                    item.name,
                    path.strip_prefix(root).unwrap().display()
                ));
            }
        }
    }
    assert!(declared > min, "scan found only {declared} pub {kinds:?}");
    assert!(
        unused.is_empty(),
        "{} pub {kinds:?} named only inside their own crate — delete them or make them private:\n  {}",
        unused.len(),
        unused.join("\n  ")
    );
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
    check_named_outside_the_crate(&["fn"], 100);
}

#[test]
fn every_pub_type_and_const_is_named_outside_its_own_file() {
    check_named_outside_the_crate(&["struct", "enum", "trait", "type", "const"], 50);
}
