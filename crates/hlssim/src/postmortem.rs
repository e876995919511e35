//! Postmortem bundle capture: the glue between a dying run and the
//! flight recorder's [`PostmortemBundle`].
//!
//! The bundle type lives in `fblas_metrics::flight` (so the metrics
//! crate stays dependency-free); this module owns everything that needs
//! simulator context — the resolved `FBLAS_*` knob table, the
//! `FBLAS_FLIGHT_DIR` file write, and the final forced sample of the
//! registry at the moment of death. `Simulation::run` calls [`capture`]
//! on `SimError::Stall`/`Deadline`/`Poisoned`; the composition executor
//! calls it (with the recovery report attached) when a retry budget is
//! exhausted, holding sim-level capture suppressed during attempts so
//! only the authoritative exhaustion bundle is published.

use std::sync::Arc;

use fblas_metrics::flight::{self, PostmortemBundle, Trigger};
use serde::Value;

/// Assemble, publish, and (when `FBLAS_FLIGHT_DIR` is set) persist a
/// postmortem bundle for a terminal failure.
///
/// Returns `None` — without touching anything — when the flight
/// recorder is disarmed, capture is suppressed on this thread (the
/// recovery executor does this around each attempt), or the metrics
/// registry was never installed. Otherwise the recorder takes one final
/// forced sample so the last frame reflects the moment of death, the
/// anomaly rules run over the window, and the bundle becomes
/// [`flight::last_bundle`].
pub fn capture(
    trigger: Trigger,
    stall: Option<Value>,
    guards: Option<Value>,
    recovery: Option<Value>,
    fault: Option<Value>,
) -> Option<Arc<PostmortemBundle>> {
    if flight::capture_suppressed() {
        return None;
    }
    let rec = flight::recorder()?;
    let reg = fblas_metrics::registry_any()?;
    rec.sample_now(&reg);
    let frames = rec.frames();
    let anomalies = flight::detect(&frames);
    let snapshot = fblas_metrics::expo::snapshot_value(&reg.collect());
    let bundle = flight::record_bundle(PostmortemBundle {
        run_id: fblas_metrics::current_run_id().map(|id| id.to_string()),
        trigger,
        knobs: crate::env::resolved_knobs(),
        stall,
        guards,
        recovery,
        fault,
        frames,
        anomalies,
        snapshot,
    });
    if let Some(dir) = crate::env::flight_dir() {
        let name = match &bundle.run_id {
            Some(id) => format!("postmortem-{id}.json"),
            None => "postmortem.json".to_string(),
        };
        let path = dir.join(name);
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, bundle.to_json() + "\n"));
        if let Err(e) = write {
            eprintln!(
                "fblas: warning: failed to write postmortem bundle {}: {e}",
                path.display()
            );
        }
    }
    Some(bundle)
}
