//! Golden-output test for the versioned JSON report: linting the fixture
//! workspace must serialize byte-for-byte to the checked-in golden file.
//! Any schema change (field order, escaping, new counters) shows up as a
//! readable diff here and forces a `schema_version` bump in review.
//!
//! Regenerate after an intentional change with:
//! `EBS_BLESS=1 cargo test -p ebs-lint --test report_golden`

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::fs;
use std::path::Path;

use ebs_lint::config::Config;
use ebs_lint::{lint_tree, report};

#[test]
fn fixture_report_matches_golden() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("tests/fixtures/callgraph_ws");
    let cfg = Config::parse(&fs::read_to_string(root.join("lint.toml")).expect("read lint.toml"))
        .expect("lint.toml parses");
    let outcome = lint_tree(&root, &cfg).expect("walk fixture workspace");
    let json = report::to_json(&outcome.diagnostics, outcome.files_scanned);

    let golden = manifest.join("tests/fixtures/callgraph_ws_report.golden.json");
    if let Err(e) = pin::check(&golden, &json) {
        panic!("{e}\nif intentional, bump report::SCHEMA_VERSION and re-bless");
    }
}
