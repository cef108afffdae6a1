//! Deterministic wire-level fault injection (feature
//! `wire-fault-injection`).
//!
//! The transport extension of [`exi_sim::fault`]: where that module corrupts
//! solver state at a chosen device evaluation, this one corrupts the *wire*
//! at a chosen frame or write — a frame truncated mid-payload, a socket
//! dropped mid-stream, a reader that stalls past the reap deadline, a length
//! line that arrives as garbage. The chaos acceptance test arms one fault
//! per hostile connection and proves that every *unfaulted* job still
//! streams a bit-identical waveform and that the server drains cleanly.
//!
//! # Model
//!
//! Faults are armed per **accept index** — the 1-based order in which the
//! server accepts connections ([`arm`]). The kernel accept queue is FIFO, so
//! serial connects from a test give deterministic indices. When the handler
//! for connection `n` starts it calls [`install`]`(n)` and splits the spec:
//! read-side faults act inside the server's frame reader, write-side faults
//! act inside the shared connection writer. All trigger counters are
//! 1-based, mirroring [`exi_sim::fault::FaultSpec`].
//!
//! Never enable this feature in production builds.

use std::collections::HashMap;
use std::sync::Mutex;

/// What to break on one connection's wire, and when (1-based counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireFaultSpec {
    /// At outgoing frame write number `.0`, send only the first `.1` bytes
    /// of the frame, then hard-close the socket — the client sees a
    /// truncated frame followed by EOF.
    pub truncate_write: Option<(usize, usize)>,
    /// Replace outgoing frame write number `.0` with a hard close — the
    /// mid-stream disconnect a vanished client produces.
    pub disconnect_at_write: Option<usize>,
    /// Before incoming frame number `.0` is awaited, stall the connection's
    /// reader for `.1` milliseconds — past the idle deadline this draws the
    /// reaper, under it it is just latency.
    pub stall_read_ms: Option<(usize, u64)>,
    /// Incoming frame number `.0` arrives with a corrupted length line —
    /// the handler replies `protocol_error` and closes, exactly as for a
    /// real desynced peer.
    pub corrupt_len_line: Option<usize>,
}

/// Faults armed per accept index, waiting for their connection.
static ARMED: Mutex<Option<HashMap<usize, WireFaultSpec>>> = Mutex::new(None);

fn armed_lock() -> std::sync::MutexGuard<'static, Option<HashMap<usize, WireFaultSpec>>> {
    ARMED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `spec` for the `connection`-th accepted connection (1-based).
pub fn arm(connection: usize, spec: WireFaultSpec) {
    armed_lock()
        .get_or_insert_with(HashMap::new)
        .insert(connection, spec);
}

/// Disarms every accept index.
pub fn clear_all() {
    *armed_lock() = None;
}

/// Fetches the fault armed for accept index `connection`, if any. The
/// server's connection handler calls this once at accept time; the spec
/// stays armed (a reconnect at the same index would see it again).
pub fn install(connection: usize) -> Option<WireFaultSpec> {
    armed_lock()
        .as_ref()
        .and_then(|map| map.get(&connection).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_install_clear_all_round_trip() {
        let spec = WireFaultSpec {
            truncate_write: Some((2, 7)),
            ..WireFaultSpec::default()
        };
        arm(90_001, spec.clone());
        assert_eq!(install(90_001), Some(spec));
        assert_eq!(install(90_002), None);
        clear_all();
        assert_eq!(install(90_001), None);
    }
}
