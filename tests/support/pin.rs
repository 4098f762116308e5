//! The one pin plane. A pin is a committed, human-readable file that
//! holds exactly what a test or a bench suite renders: `BENCH_*.json` at
//! the repository root, or a `*.golden.*` file beside a test. [`check`]
//! compares a fresh rendering with it; with `EBS_BLESS=1` in the
//! environment it writes the rendering instead. So a re-pin is one
//! command, `git diff` shows what moved, and `scripts/pin_delta.py` turns
//! that diff into an old → new table.
//!
//! Shared by file, not by crate: every pin test, and `ebs_bench::suite_main`
//! for the `BENCH_*.json`, includes it with
//! `#[path = "<..>/tests/support/pin.rs"] mod pin;`. It therefore uses
//! `std` alone and exposes one function.

use std::path::Path;

/// Compare `got` with the pin file at `path`, or write it there when
/// `EBS_BLESS=1`. `Err` names the file, its first moved line, the cell
/// that line belongs to and the first token that moved in it.
pub fn check(path: &Path, got: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path);
    let shown = path.display();
    if std::env::var_os("EBS_BLESS").is_some_and(|v| v == "1") {
        if committed.ok().as_deref() != Some(got) {
            std::fs::write(path, got).map_err(|e| format!("{shown}: {e}"))?;
            eprintln!("blessed {shown}");
        }
        return Ok(());
    }
    let want = committed.map_err(|e| format!("{shown}: {e} (EBS_BLESS=1 writes it)"))?;
    match first_moved(&want, got) {
        None => Ok(()),
        Some(moved) => Err(format!(
            "{shown} drifted; re-pin with EBS_BLESS=1 only if that is intended.\n{moved}"
        )),
    }
}

/// Where `got` first departs from `want`, line by line.
fn first_moved(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.split('\n'), got.split('\n'));
    let mut cell = "";
    for n in 1.. {
        let (a, b) = (w.next(), g.next());
        let a_text = a.unwrap_or("<end of file>");
        cell = label(a_text).unwrap_or(cell);
        if a == b {
            continue;
        }
        let b_text = b.unwrap_or("<end of file>");
        let (old, new) = tokens(a_text)
            .into_iter()
            .zip(tokens(b_text))
            .find(|(x, y)| x != y)
            .unwrap_or_else(|| (a_text.into(), b_text.into()));
        return Some(format!(
            "line {n}, cell `{cell}`: `{old}` -> `{new}`\n- {a_text}\n+ {b_text}"
        ));
    }
    unreachable!("two different strings differ on some line")
}

/// The line's space-separated tokens, a JSON `"key":` kept with its value.
fn tokens(line: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for t in line.split(' ') {
        match out.last_mut() {
            Some(key) if key.ends_with("\":") => *key = format!("{key} {t}"),
            _ => out.push(t.into()),
        }
    }
    out
}

/// The cell a line opens: a BENCH experiment's `{"id": "…"`, or the label
/// of a `label: …` line (a digest cell, a chaos schedule) — text before
/// the first `: `, starting with a letter, free of JSON and `key=value`
/// punctuation.
fn label(line: &str) -> Option<&str> {
    if let Some((_, id)) = line.split_once("{\"id\": \"") {
        return id.split('"').next();
    }
    let (head, _) = line.split_once(": ")?;
    let starts = head.starts_with(|c: char| c.is_ascii_alphabetic());
    (starts && !head.contains(['"', '=', '[', '{'])).then_some(head)
}
