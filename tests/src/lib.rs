//! Integration tests for scale-sim-rs live in `tests/tests/`; what several
//! of them share lives here: a watchdog for tests that could hang, and
//! [`oracle`], the element-granular reference model the differential
//! suites compare `scalesim-memory` against.

pub mod oracle;

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use scalesim_topology::{ConvLayer, ConvLayerBuilder};

/// A convolution for the property suites, from drawn parameters: `ifmap`,
/// `filter` and `strides` each `(h, w)`, the filter clamped to the ifmap.
/// `kind` picks one of the shapes the phase rules of
/// `AddressMap::a_phase` single out: 0 as drawn, 1 a 1×1 filter, 2 fully
/// connected (the filter is the ifmap), 3 a filter as wide as the ifmap
/// (`W_i = filter_w`, so the window is linear in `k`).
pub fn conv_case(
    kind: u8,
    ifmap: (u64, u64),
    filter: (u64, u64),
    strides: (u64, u64),
    channels: u64,
    filters: u64,
) -> ConvLayer {
    let filter = match kind % 4 {
        0 => (filter.0.min(ifmap.0), filter.1.min(ifmap.1)),
        1 => (1, 1),
        2 => ifmap,
        _ => (filter.0.min(ifmap.0), ifmap.1),
    };
    ConvLayerBuilder::new("p")
        .ifmap(ifmap.0, ifmap.1)
        .filter(filter.0, filter.1)
        .channels(channels)
        .num_filters(filters)
        .strides(strides.0, strides.1)
        .build()
        .unwrap()
}

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
