//! End-to-end tests of a real `scale-sim serve` process: a real SIGTERM
//! and a clean exit-code-0 drain, and an accept loop that runs out of file
//! descriptors.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Lines};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use scalesim_server::http::client::request;

/// Reaps the child on panic so a failing test never leaks a server.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `command` (which runs `scale-sim serve --port 0`) and reads the
/// ephemeral port off its startup banner.
fn serve(mut command: Command) -> (ChildGuard, SocketAddr, Lines<BufReader<ChildStderr>>) {
    let child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut child = ChildGuard(child);
    let stderr = child.0.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read stderr");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after scheme")
                .parse()
                .expect("parseable address");
        }
    };
    (child, addr, lines)
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut command = Command::new(env!("CARGO_BIN_EXE_scale-sim"));
    command.args([
        "serve",
        "--port",
        "0",
        "--workers",
        "1",
        "--grace-ms",
        "8000",
    ]);
    let (mut child, addr, lines) = serve(command);
    // Drain the rest of stderr in the background so the child never
    // blocks on a full pipe, and keep it for assertions after exit.
    let tail = std::thread::spawn(move || {
        let mut text = String::new();
        for line in lines.map_while(Result::ok) {
            text.push_str(&line);
            text.push('\n');
        }
        text
    });

    let health = request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));

    let pid = child.0.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    // Clean exit within the grace period (plus signal-poll slack).
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "drained serve exits 0, got {status:?}");
    let stderr_text = tail.join().unwrap();
    assert!(
        stderr_text.contains("draining"),
        "shutdown is announced, got: {stderr_text}"
    );
    assert!(stderr_text.contains("drained cleanly"));
}

/// Under a 16-descriptor limit, 24 idle connections leave `accept` failing
/// with EMFILE: each failure is counted in
/// `scalesim_http_accept_errors_total` and backed off, and once the
/// connections close the same process serves again.
#[test]
fn descriptor_exhaustion_is_counted_and_outlived() {
    let mut command = Command::new("sh");
    command.args([
        "-c",
        "ulimit -n 16 && exec \"$0\" serve --port 0 --workers 1",
        env!("CARGO_BIN_EXE_scale-sim"),
    ]);
    let (_child, addr, _lines) = serve(command);
    let held: Vec<TcpStream> = (0..24)
        .map(|_| TcpStream::connect(addr).expect("the backlog takes the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    drop(held);

    let metrics = request(addr, "GET", "/metrics", None).expect("served after the burst");
    assert_eq!(metrics.status, 200);
    let errors: u64 = metrics
        .body
        .lines()
        .find_map(|line| line.strip_prefix("scalesim_http_accept_errors_total "))
        .expect("the accept-error counter is rendered")
        .parse()
        .unwrap();
    assert!(errors > 0, "{}", metrics.body);
}
