//! Plain-text run summary: the at-a-glance companion to the Perfetto
//! export, printable from examples and benchmark binaries.

use crate::Tracer;

/// Render a fixed-width table of per-module activity plus sampled
/// series extremes.
pub fn run_summary(tracer: &Tracer) -> String {
    let mut out = String::new();
    let lanes = tracer.lanes();

    out.push_str("== module lanes ==\n");
    out.push_str(&format!(
        "{:<24} {:>10} {:>8} {:>8} {:>12} {:>12} {:>8}\n",
        "module", "run(µs)", "pushes", "pops", "full-wait(µs)", "empty-wait(µs)", "dropped"
    ));
    for lane in &lanes {
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>12} {:>12} {:>8}\n",
            lane.module,
            lane.ended_us.saturating_sub(lane.started_us),
            lane.pushes,
            lane.pops,
            lane.full_stall_us,
            lane.empty_stall_us,
            lane.dropped,
        ));
    }
    if lanes.is_empty() {
        out.push_str("(no lanes recorded)\n");
    }

    let series = tracer.series();
    if !series.is_empty() {
        out.push_str("\n== sampled series ==\n");
        out.push_str(&format!(
            "{:<32} {:>8} {:>10} {:>10}\n",
            "series", "samples", "max", "last"
        ));
        for (name, samples) in &series {
            let max = samples
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::NEG_INFINITY, f64::max);
            let last = samples.last().map(|(_, v)| *v).unwrap_or(0.0);
            out.push_str(&format!(
                "{:<32} {:>8} {:>10.1} {:>10.1}\n",
                name,
                samples.len(),
                max,
                last
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleScope;

    #[test]
    fn summary_lists_lanes_series_and_metrics() {
        let tracer = Tracer::new();
        {
            let _scope = ModuleScope::enter("reader", Some(&tracer));
        }
        tracer.record_sample("occ:x", 10, 4.0);

        let text = run_summary(&tracer);
        assert!(text.contains("reader"));
        assert!(text.contains("occ:x"));
    }
}
