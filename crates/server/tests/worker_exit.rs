//! The worker binary's exit status when the server cannot be reached.

use std::net::TcpListener;
use std::process::Command;

#[test]
fn an_unreachable_server_exits_with_status_1_and_names_the_error() {
    // Bind a free port, then drop the listener: nothing accepts there.
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let output = Command::new(env!("CARGO_BIN_EXE_neurohammer-worker"))
        .args(["--server", &format!("127.0.0.1:{port}")])
        .args(["--name", "orphan", "--drain"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("worker \"orphan\": socket error"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
