//! Deterministic, test-only fault injection (feature `fault-injection`).
//!
//! The attribution and isolation paths of this crate exist for failures that
//! healthy fixtures never produce: a numerically singular conductance
//! matrix, a device evaluation that overflows to NaN, a Krylov basis that
//! breaks down, an observer that panics. This module forces each of those
//! at a chosen point so tests can assert the *reaction* — error
//! attribution, batch isolation, exit codes — rather than hope for a
//! naturally occurring failure.
//!
//! # Model
//!
//! Faults are **armed** globally per job label ([`arm`]) and **installed**
//! thread-locally by the executor about to run that job (the
//! [`BatchRunner`](crate::BatchRunner) worker does this automatically,
//! matching on the job's label). The engine hooks consult only the
//! thread-local slot, so parallel jobs never see each other's faults.
//! Trigger points count *device evaluations* (DC Newton iterations and
//! engine linearizations alike) or *accepted steps* on the faulted thread,
//! making every injection deterministic and independent of scheduling.
//!
//! Where possible a fault corrupts real data instead of returning a
//! synthetic error: [`FaultSpec::singular_unknown`] zeroes a row/column
//! pair of the freshly stamped `G`, so the factorization discovers a
//! genuine zero pivot and the ordinary attribution chain
//! ([`SparseError::Singular`](exi_sparse::SparseError) →
//! [`SimError::SingularSystem`](crate::SimError)) names the unknown;
//! [`FaultSpec::nan_f`] writes a NaN into the stamped current vector, so
//! the engine's own non-finite boundary check raises
//! [`SimError::NonFinite`](crate::SimError).
//!
//! Never enable this feature in production builds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

/// What to break, and when (counters are 1-based and per installed thread).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// At device evaluation number `.0`, zero row and column `.1` of the
    /// stamped `G` — the next factorization hits a genuine zero pivot and
    /// reports that unknown as singular.
    pub singular_unknown: Option<(usize, usize)>,
    /// At device evaluation number `.0`, overwrite `f[.1]` with NaN — the
    /// engine's non-finite boundary check reports `SimError::NonFinite`.
    pub nan_f: Option<(usize, usize)>,
    /// At Krylov subspace build number `.0`, force a basis breakdown
    /// (`KrylovError::Breakdown`).
    pub krylov_breakdown: Option<usize>,
    /// Panic (deliberately) just before accepted step number `.0` is
    /// reported to the observer — exercises `catch_unwind` isolation.
    pub panic_at_step: Option<usize>,
}

/// Faults armed per job label, waiting for a worker to install them.
static ARMED: Mutex<Option<HashMap<String, FaultSpec>>> = Mutex::new(None);

thread_local! {
    static ACTIVE: RefCell<Option<FaultState>> = const { RefCell::new(None) };
}

#[derive(Debug)]
struct FaultState {
    spec: FaultSpec,
    evals: usize,
    subspaces: usize,
    accepted: usize,
}

fn armed_lock() -> std::sync::MutexGuard<'static, Option<HashMap<String, FaultSpec>>> {
    // A panicking faulted thread is the normal case here; the map itself is
    // never left half-written, so recover the guard.
    ARMED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `spec` for every future thread that [`install`]s `label`.
pub fn arm(label: &str, spec: FaultSpec) {
    armed_lock()
        .get_or_insert_with(HashMap::new)
        .insert(label.to_string(), spec);
}

/// Disarms every label and uninstalls the calling thread's active fault.
///
/// The armed map is process-global, so calling this from an integration
/// test wipes faults armed by concurrently running tests. Prefer
/// [`FaultGuard`], which removes only its own labels.
pub fn clear_all() {
    *armed_lock() = None;
    uninstall();
}

/// Disarms `label` only, leaving every other armed fault in place.
pub fn disarm(label: &str) {
    if let Some(map) = armed_lock().as_mut() {
        map.remove(label);
    }
}

/// Scoped fault arming: arms labels on construction, disarms exactly those
/// labels (and uninstalls the calling thread's slot) on drop.
///
/// This fixes the [`clear_all`] footgun — the armed map is process-global,
/// so a test that cleared *everything* on exit would race with faults armed
/// by concurrently running tests. A guard only ever touches the labels it
/// armed itself:
///
/// ```
/// # #[cfg(feature = "fault-injection")] {
/// use exi_sim::fault::{FaultGuard, FaultSpec};
/// let _guard = FaultGuard::arm(
///     "job-3",
///     FaultSpec { panic_at_step: Some(2), ..FaultSpec::default() },
/// )
/// .also(
///     "job-5",
///     FaultSpec { singular_unknown: Some((1, 0)), ..FaultSpec::default() },
/// );
/// // faults armed for "job-3" / "job-5" until `_guard` drops
/// # }
/// ```
#[derive(Debug)]
pub struct FaultGuard {
    labels: Vec<String>,
}

impl FaultGuard {
    /// Arms `spec` for `label` and returns a guard that will disarm it.
    #[must_use = "faults disarm when the guard drops"]
    pub fn arm(label: &str, spec: FaultSpec) -> FaultGuard {
        arm(label, spec);
        FaultGuard {
            labels: vec![label.to_string()],
        }
    }

    /// Arms an additional label under the same guard.
    #[must_use = "faults disarm when the guard drops"]
    pub fn also(mut self, label: &str, spec: FaultSpec) -> FaultGuard {
        arm(label, spec);
        self.labels.push(label.to_string());
        self
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        for label in &self.labels {
            disarm(label);
        }
        uninstall();
    }
}

/// Installs the fault armed for `label` (if any) on the calling thread,
/// resetting its trigger counters. Returns `true` when a fault is now
/// active. Batch workers call this with the job label before running a job.
pub fn install(label: &str) -> bool {
    let spec = armed_lock()
        .as_ref()
        .and_then(|map| map.get(label).cloned());
    let installed = spec.is_some();
    ACTIVE.with(|slot| {
        *slot.borrow_mut() = spec.map(|spec| FaultState {
            spec,
            evals: 0,
            subspaces: 0,
            accepted: 0,
        });
    });
    installed
}

/// Removes the calling thread's active fault.
pub fn uninstall() {
    ACTIVE.with(|slot| *slot.borrow_mut() = None);
}

/// Engine hook: a device evaluation just produced `eval`. Applies
/// `singular_unknown` / `nan_f` when their trigger count is reached, and
/// returns whether it edited `eval.g` — which can touch cells no device
/// writes, so a consumer that refreshes only the devices' cells must refresh
/// every cell of this evaluation and of the next.
pub(crate) fn on_device_eval(eval: &mut exi_netlist::Evaluation) -> bool {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return false;
        };
        state.evals += 1;
        let mut edited_g = false;
        if let Some((at, unknown)) = state.spec.singular_unknown {
            if state.evals == at {
                zero_row_col(&mut eval.g, unknown);
                edited_g = true;
            }
        }
        if let Some((at, index)) = state.spec.nan_f {
            if state.evals == at {
                if let Some(f) = eval.f.get_mut(index) {
                    *f = f64::NAN;
                }
            }
        }
        edited_g
    })
}

/// Engine hook: about to build Krylov subspace number `n` (thread-local
/// count). Returns `true` when the armed fault demands a breakdown.
pub(crate) fn krylov_breakdown_due() -> bool {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return false;
        };
        state.subspaces += 1;
        state.spec.krylov_breakdown == Some(state.subspaces)
    })
}

/// Engine hook: about to report accepted step `n`. Panics when the armed
/// fault says so — the message is stable for assertions.
pub(crate) fn maybe_panic_on_accept() {
    let due = ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let state = slot.as_mut()?;
        state.accepted += 1;
        (state.spec.panic_at_step == Some(state.accepted)).then_some(state.accepted)
    });
    if let Some(step) = due {
        panic!("fault injection: observer panic at accepted step {step}");
    }
}

/// Zeroes row `r` and column `r` of `g` (values only — the pattern is
/// locked), leaving the matrix genuinely singular in unknown `r`.
fn zero_row_col(g: &mut exi_sparse::CsrMatrix, r: usize) {
    if r >= g.rows() {
        return;
    }
    let (start, end) = (g.indptr()[r], g.indptr()[r + 1]);
    let indices = g.indices().to_vec();
    let values = g.values_mut();
    for v in &mut values[start..end] {
        *v = 0.0;
    }
    for (k, &col) in indices.iter().enumerate() {
        if col == r {
            values[k] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed map is process-global and `clear_all` wipes it; serialize
    // the tests that touch it so they cannot disarm each other mid-flight.
    static MAP_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn install_is_label_keyed_and_thread_local() {
        let _serial = MAP_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        clear_all();
        arm(
            "job-a",
            FaultSpec {
                nan_f: Some((1, 0)),
                ..FaultSpec::default()
            },
        );
        assert!(!install("job-b"));
        assert!(install("job-a"));
        // The other thread sees the armed map but starts with its own slot.
        let handle = std::thread::spawn(|| install("job-a"));
        assert!(handle.join().unwrap());
        clear_all();
        assert!(!install("job-a"));
    }

    #[test]
    fn guard_disarms_only_its_own_labels() {
        let _serial = MAP_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        arm(
            "guard-outside",
            FaultSpec {
                krylov_breakdown: Some(1),
                ..FaultSpec::default()
            },
        );
        {
            let _guard = FaultGuard::arm(
                "guard-a",
                FaultSpec {
                    nan_f: Some((1, 0)),
                    ..FaultSpec::default()
                },
            )
            .also(
                "guard-b",
                FaultSpec {
                    panic_at_step: Some(1),
                    ..FaultSpec::default()
                },
            );
            assert!(install("guard-a"));
            uninstall();
            assert!(install("guard-b"));
            uninstall();
        }
        assert!(!install("guard-a"));
        assert!(!install("guard-b"));
        // A label armed outside the guard survives the guard's drop.
        assert!(install("guard-outside"));
        uninstall();
        disarm("guard-outside");
        assert!(!install("guard-outside"));
    }

    #[test]
    fn zeroing_a_row_col_pair_hits_both_triangles() {
        // 2x2 dense pattern.
        let mut g = exi_sparse::CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 4.0)],
        );
        zero_row_col(&mut g, 1);
        assert_eq!(g.values(), &[4.0, 0.0, 0.0, 0.0]);
    }
}
