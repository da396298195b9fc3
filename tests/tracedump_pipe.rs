//! `tracedump` writes to pipes that close early (`… | head -1`): the
//! closed pipe is the end of its output, never a panic.

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
