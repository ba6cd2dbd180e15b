//! Process-signal plumbing without the `libc` crate.
//!
//! The repo's offline-build rule leaves no dependency to lean on, so
//! this goes through the raw C `signal(2)` ABI directly: the handler
//! just flips an `AtomicBool` (the only thing that is async-signal-safe
//! anyway). [`Server::run`](crate::server::Server::run), which
//! otherwise sleeps on a condition variable until a drain ends, wakes
//! every 50 ms to check [`triggered`] and begin a graceful drain; the
//! connection handlers never look at it.
//!
//! On non-unix targets [`install`] is a no-op and shutdown is driven by
//! [`Handle::shutdown`](crate::server::Handle::shutdown) alone.
//!
//! [`restore_default_sigpipe`] undoes the Rust runtime's ignored
//! SIGPIPE, for command-line tools whose output may be piped into a
//! reader that exits early.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been delivered since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Test hook: simulates signal delivery in-process.
pub fn trigger_for_test() {
    TRIGGERED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    /// `SIG_DFL`: the signal's default action.
    const SIG_DFL: usize = 0;

    extern "C" {
        /// POSIX `signal(2)`; handler and return are `void (*)(int)`
        /// spelled as `usize` to avoid declaring a C function-pointer
        /// type.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Registers the SIGTERM/SIGINT handlers.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// Puts SIGPIPE back to its default action, ending the process,
    /// which the Rust runtime replaces with "ignore" at start-up.
    pub fn restore_default_sigpipe() {
        // SAFETY: `SIG_DFL` is a valid disposition for SIGPIPE, and
        // `signal(2)` touches no memory Rust owns.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// Signals are unix-only here; shutdown goes through the handle.
    pub fn install() {}

    /// There is no SIGPIPE off unix.
    pub fn restore_default_sigpipe() {}
}

pub use imp::{install, restore_default_sigpipe};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_safe_and_trigger_flag_sticks() {
        install();
        // Not triggered just by installing... but another test (or a
        // prior trigger_for_test) may already have set the flag, so
        // only assert the one-way transition.
        trigger_for_test();
        assert!(triggered());
    }
}
