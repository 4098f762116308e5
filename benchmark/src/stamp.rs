//! What every result is stamped with, and the release-profile guard.

use std::process::Command;

use crate::json::Json;

const BENCH_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
const ROOT_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");

/// The `key=value` lines of `[profile.release]` in a manifest: comments,
/// blank lines and whitespace dropped, sorted.
pub fn release_profile(manifest_text: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest_text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.chars().filter(|c| !c.is_whitespace()).collect())
        .collect();
    lines.sort();
    lines
}

/// The benchmark must be built with the product's codegen settings, or it
/// measures a different program.
pub fn check_release_profile() -> Result<(), String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let ours = release_profile(&read(BENCH_MANIFEST)?);
    let root = release_profile(&read(ROOT_MANIFEST)?);
    if ours == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {ours:?} differs from the root manifest's {root:?}; copy the root's"
        ))
    }
}

/// First line a command prints, or "unknown" (no git in a bare checkout,
/// no rustc on PATH: the stamp degrades, the run does not fail).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn stamp() -> Json {
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("rustc", first_line("rustc", &["-V"]))
        .with("git_commit", first_line("git", &["rev-parse", "HEAD"]))
        .with(
            "release_profile",
            release_profile(&std::fs::read_to_string(BENCH_MANIFEST).unwrap_or_default())
                .into_iter()
                .map(Json::from)
                .collect::<Vec<_>>(),
        )
        .with("obs", ebs_obs::ENABLED)
        .with("fresh_process_per_trial", true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parser_ignores_comments_order_and_spacing() {
        let a = "[package]\nname = \"x\"\n# why\n[profile.release]\nlto = \"thin\"  # comment\ncodegen-units=1\n\n[profile.dev]\nopt-level = 2\n";
        let b = "[profile.release]\ncodegen-units = 1\nlto   =   \"thin\"\n";
        assert_eq!(release_profile(a), vec!["codegen-units=1", "lto=\"thin\""]);
        assert_eq!(release_profile(a), release_profile(b));
        let c = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n";
        assert_ne!(release_profile(a), release_profile(c));
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn the_two_manifests_agree() {
        check_release_profile().expect("profiles match");
        let root = std::fs::read_to_string(ROOT_MANIFEST).expect("root manifest");
        assert!(
            !release_profile(&root).is_empty(),
            "the root manifest sets a release profile"
        );
    }
}
