//! Integration tests for scale-sim-rs live in `tests/tests/`; what several
//! of them share lives here: a watchdog for tests that could hang, and
//! [`oracle`], the element-granular reference model the differential
//! suites compare `scalesim-memory` against.

pub mod oracle;

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Runs `f` on a thread of its own and fails the calling test if it does
/// not finish within `secs` seconds — a hang (a sweep emitter or a parked
/// worker that never wakes) then fails the suite instead of stalling it.
pub fn watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            worker.join().expect("watchdogged closure panicked");
            value
        }
        Err(_) => panic!("no result within {secs}s: the run hung"),
    }
}
