//! Usage-text drift tests: `sfi-lint --help` and `sfi-asm --help` must
//! exit 0 and mention every flag their parsers accept, so the USAGE
//! strings cannot silently fall behind the argument matchers.  The assembler binaries additionally pin their exit-status
//! contract: 2 for usage/assembly errors (with source spans), 1 for
//! verify findings, 0 when clean.

use std::process::Command;

#[test]
fn sfi_lint_help_mentions_every_accepted_flag() {
    let bin = env!("CARGO_BIN_EXE_sfi-lint");
    let output = Command::new(bin)
        .arg("--help")
        .output()
        .unwrap_or_else(|err| panic!("cannot run {bin} --help: {err}"));
    assert!(
        output.status.success(),
        "sfi-lint --help must exit 0, got {:?}",
        output.status
    );
    let help = String::from_utf8(output.stdout).expect("help is UTF-8");
    // Keep in sync with the `match argv[i].as_str()` arms in
    // crates/bench/src/bin/sfi_lint.rs.
    for flag in [
        "--json",
        "--words",
        "--asm",
        "--dmem",
        "--fi-window",
        "--help",
    ] {
        assert!(help.contains(flag), "sfi-lint --help must mention {flag}");
    }
}

#[test]
fn sfi_asm_help_mentions_every_accepted_flag() {
    let bin = env!("CARGO_BIN_EXE_sfi-asm");
    let output = Command::new(bin)
        .arg("--help")
        .output()
        .unwrap_or_else(|err| panic!("cannot run {bin} --help: {err}"));
    assert!(
        output.status.success(),
        "sfi-asm --help must exit 0, got {:?}",
        output.status
    );
    let help = String::from_utf8(output.stdout).expect("help is UTF-8");
    // Keep in sync with the `match argv[i].as_str()` arms in
    // crates/bench/src/bin/sfi_asm.rs.
    for flag in [
        "--words",
        "--listing",
        "--json",
        "--verify",
        "--dmem",
        "--seed",
        "--out",
        "--help",
    ] {
        assert!(help.contains(flag), "sfi-asm --help must mention {flag}");
    }
}

/// Writes `source` to a fresh temp file and returns its path.
fn temp_asm_file(name: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sfi-usage-{}-{name}", std::process::id()));
    std::fs::write(&path, source).expect("write temp asm");
    path
}

#[test]
fn sfi_asm_assembly_errors_exit_2_with_source_spans() {
    let bin = env!("CARGO_BIN_EXE_sfi-asm");
    // An unknown directive and a duplicate label are both assembly
    // errors: exit status 2 with a rendered caret span on stderr.
    for (name, source, expected) in [
        (
            "unknown-directive.s",
            ".bogus 4\nl.nop\n",
            "unknown directive",
        ),
        (
            "duplicate-label.s",
            "top:\nl.nop\ntop:\nl.nop\n",
            "duplicate label",
        ),
    ] {
        let path = temp_asm_file(name, source);
        let output = Command::new(bin).arg(&path).output().expect("runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name}: expected exit 2, got {:?}\n{stderr}",
            output.status
        );
        assert!(stderr.contains(expected), "{name}: {stderr}");
        // The span rendering names the file, the line and points a caret.
        assert!(
            stderr.contains("-->") && stderr.contains('^'),
            "{name}: expected a rendered source span:\n{stderr}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn sfi_asm_verify_gate_exits_1_on_findings_and_0_when_clean() {
    let bin = env!("CARGO_BIN_EXE_sfi-asm");
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");

    let output = Command::new(bin)
        .args(["--verify", "--words"])
        .arg(fixtures.join("bad.s"))
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("bad.s:"),
        "findings carry source lines: {stderr}"
    );

    let output = Command::new(bin)
        .args(["--verify", "--words"])
        .arg(fixtures.join("clean.s"))
        .output()
        .expect("runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn sfi_lint_asm_fixture_exits_1_with_line_mapped_findings() {
    let bin = env!("CARGO_BIN_EXE_sfi-lint");
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let output = Command::new(bin)
        .arg("--asm")
        .arg(fixtures.join("bad.s"))
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("bad.s:5)"),
        "finding must map back to the fixture source line:\n{stdout}"
    );
}

#[test]
fn sfi_lint_over_the_builtin_kernels_is_clean() {
    let bin = env!("CARGO_BIN_EXE_sfi-lint");
    let output = Command::new(bin)
        .output()
        .unwrap_or_else(|err| panic!("cannot run {bin}: {err}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "built-in kernels must lint clean:\n{stdout}"
    );
    assert!(
        stdout.contains("9 target(s), 0 error(s), 0 warning(s)"),
        "{stdout}"
    );

    // An unknown kernel name is a usage error (exit 2), not a panic.
    let output = Command::new(bin)
        .arg("no_such_kernel")
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(2));
}
