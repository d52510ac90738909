//! Minimal POSIX signal handling for `scale-sim serve`'s graceful
//! shutdown, std-only per the repo's vendor policy (no `libc`/`signal-hook`
//! crates available).
//!
//! [`install`] registers a handler for `SIGINT` and `SIGTERM` that sets a
//! process-global flag; [`shutdown_requested`] polls it. The handler body
//! is a single atomic store — async-signal-safe by construction.
//!
//! The `sigaction` shim is written against the glibc/musl 64-bit Linux ABI
//! (`struct sigaction` layout: handler pointer, 128-byte mask, flags,
//! restorer) and is gated to 64-bit Unix targets; elsewhere [`install`] is
//! a no-op and the process cannot be signalled to drain.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a shutdown signal (`SIGINT`/`SIGTERM`) has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Installs the `SIGINT`/`SIGTERM` handler. Safe to call more than once.
/// On targets without the sigaction shim this is a no-op and returns
/// `false`; callers still work, they just can't be signalled.
pub fn install() -> bool {
    imp::install()
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// Restart interruptible syscalls instead of surfacing `EINTR`
    /// everywhere; the serve loop polls the flag, it does not rely on
    /// syscall interruption.
    const SA_RESTART: i32 = 0x1000_0000;

    extern "C" fn on_signal(_signo: i32) {
        // Only async-signal-safe operation here: one atomic store.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// glibc/musl `struct sigaction` on 64-bit Linux: union of handler
    /// pointers, 1024-bit signal mask, flags, legacy restorer slot.
    #[repr(C)]
    struct SigAction {
        sa_handler: extern "C" fn(i32),
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, oldact: *mut SigAction) -> i32;
    }

    pub fn install() -> bool {
        let action = SigAction {
            sa_handler: on_signal,
            sa_mask: [0; 16],
            sa_flags: SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `action` is a properly initialized sigaction for this
        // ABI; the handler performs only an atomic store.
        unsafe {
            sigaction(SIGINT, &action, std::ptr::null_mut()) == 0
                && sigaction(SIGTERM, &action, std::ptr::null_mut()) == 0
        }
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod imp {
    pub fn install() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_succeeds_more_than_once() {
        // The handler is process-global; installing it again replaces it
        // with itself. Nothing here raises a signal.
        let shim = cfg!(all(unix, target_pointer_width = "64"));
        assert_eq!(install(), shim);
        assert_eq!(install(), shim);
        assert!(!shutdown_requested());
    }
}
