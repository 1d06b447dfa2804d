//! The public surface matches its users: every `pub fn` under
//! `crates/*/src` is named by some other `.rs` file of the repository —
//! another module, a test, an example or the benchmark. A `pub fn` that only
//! its own file names is either dead or private in all but spelling; delete
//! it or narrow it to `pub(crate)`/private.
//!
//! The scan is textual (std only): a declaration is a line whose code starts
//! with `pub fn` (after optional `const`/`unsafe`/`async`), and a use is the
//! same identifier, on word boundaries, anywhere in another file under
//! `crates/`, `src/`, `tests/`, `examples/` or `benchmark/` (`target/`
//! directories skipped).

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

/// The names of the `pub fn`s declared in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| {
            let mut rest = line.trim_start().strip_prefix("pub ")?;
            for qualifier in ["const ", "unsafe ", "async "] {
                rest = rest.strip_prefix(qualifier).unwrap_or(rest);
            }
            let rest = rest.strip_prefix("fn ")?;
            let end = rest.bytes().position(|b| !is_ident_byte(b))?;
            Some(&rest[..end])
        })
        .collect()
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
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
        for name in pub_fns(text) {
            declared += 1;
            let used = idents
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
    assert!(declared > 100, "scan found only {declared} pub fns");
    assert!(
        unused.is_empty(),
        "{} pub fn(s) named only in their own file — delete them or make them private:\n  {}",
        unused.len(),
        unused.join("\n  ")
    );
}
