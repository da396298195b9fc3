//! `tracedump` at the command line: it writes to pipes that close
//! early (`… | head -1`), where the closed pipe is the end of its
//! output, never a panic; and `info` reports a parse's statistics.

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(["refs", "tests/data/golden.w3kt", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tracedump starts");
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    out.read_line(&mut first).expect("one line");
    assert!(!first.is_empty(), "tracedump printed nothing");
    drop(out);
    let done = child.wait_with_output().expect("tracedump exits");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(
        done.status.code() == Some(0) || done.status.signal() == Some(13),
        "exit {:?}, signal {:?}, stderr: {stderr}",
        done.status.code(),
        done.status.signal()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `tracedump info` on the golden archive prints the statistics that
/// `tests/golden_trace.rs` pins, and its idle-instruction count.
#[test]
fn info_prints_the_golden_statistics() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(["info", "tests/data/golden.w3kt"])
        .output()
        .expect("tracedump runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}: {stdout}", out.status);
    for line in [
        "  trace words : 8192",
        "  kernel refs : 31917 I, 635 D",
        "  user refs   : 44 I, 11 D",
        "  8 kernel entries, 6 context switches, 8149 idle insts, 0 errors",
    ] {
        assert!(stdout.lines().any(|l| l == line), "no {line:?} in {stdout}");
    }
}
