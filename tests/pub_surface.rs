//! The public surface matches its users: every `pub` function, struct,
//! enum, trait, type alias and constant under `crates/*/src` is named by some
//! other `.rs` file of the repository — another module, a test, an example or
//! the benchmark. A `pub` item that only its own file names is either dead or
//! private in all but spelling; delete it or narrow it to `pub(crate)`/private.
//!
//! The scan is textual (std only): a declaration is a line whose code starts
//! with `pub fn` (after optional `const`/`unsafe`/`async`), `pub struct`,
//! `pub enum`, `pub trait`, `pub type` or `pub const`, and a use is the
//! same identifier, on word boundaries, anywhere in another file under
//! `crates/`, `src/`, `tests/`, `examples/` or `benchmark/` (`target/`
//! directories skipped). A type or const named in a `pub fn` signature or a
//! `pub` field of its own file also counts as used: callers reach it through
//! that item without naming it. A `pub fn` gets no such pass.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const SEARCHED: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark"];

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

/// The names `text` declares `pub` with one of the item keywords `kinds`
/// (`fn` also after `const`/`unsafe`/`async`).
fn pub_items<'t>(text: &'t str, kinds: &[&str]) -> Vec<&'t str> {
    text.lines()
        .filter_map(|line| {
            let item = line.trim_start().strip_prefix("pub ")?;
            let rest = kinds.iter().find_map(|&k| {
                let mut rest = item;
                if k == "fn" {
                    for qualifier in ["const ", "unsafe ", "async "] {
                        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
                    }
                }
                rest.strip_prefix(k)?.strip_prefix(' ')
            })?;
            let end = rest.bytes().position(|b| !is_ident_byte(b))?;
            Some(&rest[..end])
        })
        .collect()
}

/// Identifiers in `text`'s `pub fn` parameter lists and return types and in
/// its `pub` field types: a type named there is reachable through that item,
/// which the scan itself checks.
fn exposed(text: &str) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut in_signature = false;
    for line in text.lines() {
        let code = line.trim_start();
        let tail = if !pub_items(code, &["fn"]).is_empty() {
            in_signature = true;
            code.split_once('(').map_or("", |(_, rest)| rest)
        } else if in_signature {
            code
        } else {
            match code.strip_prefix("pub ").and_then(|r| r.split_once(':')) {
                Some((field, ty)) if field.bytes().all(is_ident_byte) => ty,
                _ => "",
            }
        };
        out.extend(identifiers(tail.split('{').next().unwrap_or(tail)));
        in_signature &= !(code.contains('{') || code.ends_with(';'));
    }
    out
}

/// Fails, listing them, on every name of `kinds` declared `pub` under
/// `crates/*/src` that no other searched file names; at least `min` must be
/// declared, so a broken scan cannot pass.
fn check_named_elsewhere(kinds: &[&str], min: usize) {
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
    let idents: BTreeMap<&Path, BTreeSet<&str>> = texts
        .iter()
        .map(|(p, t)| (p.as_path(), identifiers(t)))
        .collect();

    let crates = root.join("crates");
    let mut declared = 0;
    let mut unused = Vec::new();
    for (path, text) in &texts {
        let rel = path.strip_prefix(&crates).ok();
        let in_crate_src = rel.is_some_and(|r| {
            r.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if !in_crate_src {
            continue;
        }
        // Only a type or const is reached through an item that names it.
        let exposed = if kinds == ["fn"] {
            BTreeSet::new()
        } else {
            exposed(text)
        };
        for name in pub_items(text, kinds) {
            declared += 1;
            let used = exposed.contains(name)
                || idents
                    .iter()
                    .any(|(other, names)| *other != path.as_path() && names.contains(name));
            if !used {
                unused.push(format!(
                    "{} ({})",
                    name,
                    path.strip_prefix(root).unwrap().display()
                ));
            }
        }
    }
    assert!(declared > min, "scan found only {declared} pub {kinds:?}");
    assert!(
        unused.is_empty(),
        "{} pub {kinds:?} named only in their own file — delete them or make them private:\n  {}",
        unused.len(),
        unused.join("\n  ")
    );
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
    check_named_elsewhere(&["fn"], 100);
}

#[test]
fn every_pub_type_and_const_is_named_outside_its_own_file() {
    check_named_elsewhere(&["struct", "enum", "trait", "type", "const"], 50);
}
