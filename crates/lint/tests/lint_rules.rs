//! Rule-level tests driven by the fixture files, the live-workspace
//! self-check, and the CI-shaped exit-code tests against the built binary.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use neummu_lint::config::Config;
use neummu_lint::report::Report;
use neummu_lint::workspace::SourceFile;
use neummu_lint::{lint_files, lint_workspace};
use neummu_testdir::ScratchDir;

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    SourceFile {
        rel_path: format!("crates/fixture/src/{name}"),
        crate_name: "fixture".to_string(),
        source: fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display())),
    }
}

fn lint_fixture(name: &str, config_text: &str) -> Report {
    let config = Config::parse(config_text).expect("test config parses");
    lint_files(&[fixture(name)], &config)
}

const D001_CONFIG: &str = "[rules.D001]\ncrates = [\"fixture\"]\n";

#[test]
fn d001_flags_declaration_and_both_iteration_shapes() {
    let report = lint_fixture("d001_trip.rs", D001_CONFIG);
    let rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.iter().all(|r| *r == "D001"), "{rules:?}");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("RandomState")),
        "declaration finding missing: {:?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.message.contains(".iter(")),
        "method-chain iteration finding missing"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("`for` loop")),
        "bare for-loop iteration finding missing"
    );
    assert!(!report.is_clean());
}

#[test]
fn d001_waiver_covers_the_declaration_and_test_code_is_exempt() {
    let config = "[rules.D001]\ncrates = [\"fixture\"]\n\
        [[waiver]]\nrule = \"D001\"\nfile = \"d001_waived.rs\"\n\
        contains = \"counts: HashMap\"\nreason = \"never iterated\"\n";
    let report = lint_fixture("d001_waived.rs", config);
    // One declaration finding, waived; the `.iter()` inside `#[cfg(test)]`
    // must not be reported at all.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].waived.as_deref(), Some("never iterated"));
    assert!(report.is_clean());
}

#[test]
fn d002_flags_clock_and_env_reads() {
    let report = lint_fixture("d002_trip.rs", "[rules.D002]\nallow = []\n");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("Instant::now")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("env::var")));
}

#[test]
fn d002_allow_prefix_and_waiver_both_silence_findings() {
    // Allowlisted path prefix: no findings at all.
    let allowed = lint_fixture(
        "d002_trip.rs",
        "[rules.D002]\nallow = [\"crates/fixture/\"]\n",
    );
    assert!(allowed.findings.is_empty(), "{:?}", allowed.findings);
    // Waiver: the finding exists but is waived.
    let config = "[[waiver]]\nrule = \"D002\"\nfile = \"d002_waived.rs\"\n\
        contains = \"Instant::now\"\nreason = \"progress reporting only\"\n";
    let report = lint_fixture("d002_waived.rs", config);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.is_clean());
}

const H001_CONFIG: &str = "[[hot]]\nfile = \"h001_trip.rs\"\ntype = \"Engine\"\n\
    functions = [\"translate\"]\n";

#[test]
fn h001_flags_allocations_only_in_registered_functions() {
    let report = lint_fixture("h001_trip.rs", H001_CONFIG);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("format!")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains(".collect()")));
    // `cold_path` allocates `Vec::new()` but is not registered.
    assert!(report
        .findings
        .iter()
        .all(|f| f.message.contains("`Engine::translate`")));
}

#[test]
fn h001_waiver_and_stale_registration() {
    let config = "[[hot]]\nfile = \"h001_waived.rs\"\ntype = \"Engine\"\n\
        functions = [\"translate\"]\n\
        [[waiver]]\nrule = \"H001\"\nfile = \"h001_waived.rs\"\n\
        contains = \"format!\"\nreason = \"cold error branch\"\n";
    let report = lint_fixture("h001_waived.rs", config);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.is_clean());
    // A registration matching no function is itself a finding.
    let stale = "[[hot]]\nfile = \"h001_trip.rs\"\ntype = \"Engine\"\n\
        functions = [\"renamed_fn\"]\n";
    let report = lint_fixture("h001_trip.rs", stale);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("stale"));
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The self-check the CI gate relies on: the live workspace lints clean under
/// the checked-in `lint.toml`, and every waiver that fires carries a reason.
#[test]
fn live_workspace_lints_clean() {
    let root = repo_root();
    let config = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let report = lint_workspace(&root, &config).expect("workspace walk succeeds");
    let live: Vec<_> = report.live().collect();
    assert!(live.is_empty(), "live findings in the workspace: {live:#?}");
    for finding in &report.findings {
        let reason = finding.waived.as_deref().unwrap_or("");
        assert!(
            !reason.trim().is_empty(),
            "waived finding without a reason: {finding:?}"
        );
    }
    assert!(report.files_checked > 30, "suspiciously small workspace");
}

// ---------------------------------------------------------------------------
// CI-shaped exit-code tests against the real binary
// ---------------------------------------------------------------------------

struct TempWorkspace {
    root: ScratchDir,
}

impl TempWorkspace {
    fn new(tag: &str, lib_source: &str, lint_toml: &str) -> Self {
        let root = ScratchDir::new(&format!("lint-it-{tag}"));
        fs::create_dir_all(root.join("src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[package]\nname = \"seeded\"\nversion = \"0.1.0\"\n",
        )
        .unwrap();
        fs::write(root.join("src/lib.rs"), lib_source).unwrap();
        fs::write(root.join("lint.toml"), lint_toml).unwrap();
        TempWorkspace { root }
    }

    /// Adds a source file at `rel_path` (parent directories created).
    fn with_file(self, rel_path: &str, source: &str) -> Self {
        let path = self.root.join(rel_path);
        fs::create_dir_all(path.parent().expect("file path has a parent")).unwrap();
        fs::write(path, source).unwrap();
        self
    }

    fn lint(&self) -> Report {
        let config = Config::load(&self.root.join("lint.toml")).expect("test config parses");
        lint_workspace(self.root.path(), &config).expect("workspace walk succeeds")
    }

    fn run_lint(&self) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_neummu_lint"))
            .args(["--workspace", "--root"])
            .arg(self.root.path())
            .output()
            .expect("spawn neummu_lint")
    }
}

const SEEDED_VIOLATION: &str = "\
use std::collections::HashMap;
pub fn order(map: &HashMap<u64, u64>) -> u64 {
    map.keys().sum()
}
";

#[test]
fn binary_exits_nonzero_on_a_seeded_violation() {
    let ws = TempWorkspace::new(
        "dirty",
        SEEDED_VIOLATION,
        "[rules.D001]\ncrates = [\"seeded\"]\n",
    );
    let output = ws.run_lint();
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("D001"), "{stdout}");
    assert!(stdout.contains("src/lib.rs"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let ws = TempWorkspace::new(
        "clean",
        "pub fn double(x: u64) -> u64 { x * 2 }\n",
        "[rules.D001]\ncrates = [\"seeded\"]\n",
    )
    .with_file(
        "tests/it.rs",
        "#[test]\nfn doubles() { assert_eq!(seeded::double(2), 4); }\n",
    );
    let output = ws.run_lint();
    assert_eq!(output.status.code(), Some(0), "{output:?}");
}

#[test]
fn binary_exits_two_on_an_empty_waiver_reason() {
    let ws = TempWorkspace::new(
        "badconfig",
        "pub fn ok() {}\n",
        "[[waiver]]\nrule = \"D001\"\nfile = \"x.rs\"\ncontains = \"HashMap\"\nreason = \"\"\n",
    );
    let output = ws.run_lint();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("empty reason"), "{stderr}");
}

#[test]
fn binary_exits_two_on_a_waiver_for_an_unknown_rule() {
    let ws = TempWorkspace::new(
        "unknownrule",
        "pub fn ok() {}\n",
        "[[waiver]]\nrule = \"C001\"\nfile = \"x.rs\"\ncontains = \"x\"\nreason = \"stale\"\n",
    );
    let output = ws.run_lint();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown rule `C001`"), "{stderr}");
}

// ---------------------------------------------------------------------------
// U001: unreferenced public items, over a whole seeded workspace
// ---------------------------------------------------------------------------

/// Only `dead` goes unused: its sole mention is a `pub use` re-export. Every
/// other item is used from one place the rule must read.
const U001_LIB: &str = "\
mod inner {
    pub fn dead() {}
}
pub use inner::dead;

pub fn from_tests() {}
pub fn from_perfbench() {}
pub const NAMESPACE: &str = \"ns\";
pub struct Meter;

impl Meter {
    pub fn reading(&self) -> u64 {
        1
    }
}

pub fn key(name: &str) -> String {
    format!(\"{NAMESPACE}/{name}\")
}
";

const U001_TEST: &str = "\
use seeded::{from_tests, Meter};

#[test]
fn uses() {
    from_tests();
    let _ = seeded::key(\"x\");
    let meter = Meter;
    let _ = meter
        .reading();
}
";

fn u001_workspace(tag: &str, lint_toml: &str) -> TempWorkspace {
    TempWorkspace::new(tag, U001_LIB, lint_toml)
        .with_file("tests/it.rs", U001_TEST)
        .with_file(
            "perfbench/src/main.rs",
            "fn main() {\n    seeded::from_perfbench();\n}\n",
        )
}

#[test]
fn u001_flags_only_the_item_nothing_uses() {
    let report = u001_workspace("u001", "").lint();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let finding = &report.findings[0];
    assert_eq!(
        (finding.rule, finding.file.as_str()),
        ("U001", "src/lib.rs")
    );
    assert_eq!(finding.line, 2);
    assert!(finding.message.contains("`dead`"), "{}", finding.message);
    assert!(!report.is_clean());
}

#[test]
fn u001_waiver_silences_the_finding() {
    let config = "[[waiver]]\nrule = \"U001\"\nfile = \"src/lib.rs\"\n\
        contains = \"pub fn dead\"\nreason = \"public API kept for a named client\"\n";
    let report = u001_workspace("u001-waived", config).lint();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(
        report.findings[0].waived.as_deref(),
        Some("public API kept for a named client")
    );
    assert!(report.is_clean());
}
