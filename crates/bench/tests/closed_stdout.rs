//! The `bench` binary writing to a standard output nobody reads.

use std::process::{Command, Stdio};

/// A reader that went away (`bench lint | head -0`) ends the run
/// quietly, with status 0 and nothing on stderr, where `println!`
/// panics with "failed printing to stdout: Broken pipe". The pipe's
/// read end is closed before the binary starts, so its first write
/// already fails.
#[test]
fn closed_stdout_ends_the_run_with_status_zero() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["lint", repo])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run bench");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{:?}: {stderr}", run.status);
    assert_eq!(stderr, "");
}
