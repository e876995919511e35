//! Simulator throughput across channel chunk sizes.
//!
//! Measures elements/sec moved through real simulations — DOT, a tiled
//! GEMV, and the composed GEMVER pipeline — with the batched transport
//! layer swept across `FBLAS_CHUNK ∈ {1, 16, 256}`. Chunk size 1 is
//! honest element-wise transfer (one lock round per element); larger
//! chunks amortize the `Mutex`+`Condvar` and trace cost per element.
//!
//! Batching must not change *what* is computed: the bin asserts
//! bit-identical numeric results and identical modeled cycle counts
//! across all chunk sizes before writing the report.
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_throughput
//! ```
//!
//! Deterministic columns (`routine`, `chunk`, `n`, `elements`,
//! `model_cycles`) are gated by bench-diff; wall-clock columns carry the
//! volatile `cpu_` prefix and are exempt.

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_bench::runners::{Sample, DOT_N, GEMVER_N, GEMV_N, WORKLOADS};

const CHUNKS: [usize; 3] = [1, 16, 256];
const REPS: usize = 3;

fn main() {
    let mut report = BenchReport::new("throughput");
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("dot_n", DOT_N as u64)
        .meta("gemv_n", GEMV_N as u64)
        .meta("gemver_n", GEMVER_N as u64)
        .meta("reps", REPS as u64);

    println!("=== Simulator throughput vs channel chunk size ===\n");
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>14} {:>10}",
        "routine", "chunk", "elements", "model_cyc", "elems/sec", "wall_ms"
    );

    for w in &WORKLOADS {
        let name = w.name;
        let mut reference: Option<Sample> = None;
        for chunk in CHUNKS {
            std::env::set_var("FBLAS_CHUNK", chunk.to_string());
            // Best of REPS wall times.
            let mut s = (w.run)();
            for _ in 1..REPS {
                s.wall = s.wall.min((w.run)().wall);
            }
            if let Some(r) = &reference {
                assert_eq!(
                    r.result_bits, s.result_bits,
                    "{name}: numeric results must be bit-identical across chunk sizes"
                );
                assert_eq!(
                    r.model_cycles, s.model_cycles,
                    "{name}: modeled cycles must be chunk-invariant"
                );
            }
            let eps = s.elements as f64 / s.wall;
            println!(
                "{:<8} {:>6} {:>10} {:>12} {:>14.0} {:>10.2}",
                name,
                chunk,
                s.elements,
                s.model_cycles,
                eps,
                s.wall * 1e3
            );
            report.add_row([
                ("routine", Cell::from(name)),
                ("chunk", Cell::from(chunk as u64)),
                ("n", Cell::from(w.n)),
                ("elements", Cell::from(s.elements)),
                ("model_cycles", Cell::from(s.model_cycles)),
                ("cpu_elems_per_sec", Cell::from(eps)),
                ("cpu_wall_ms", Cell::from(s.wall * 1e3)),
            ]);
            reference.get_or_insert(s);
        }
    }
    std::env::remove_var("FBLAS_CHUNK");

    let path = report.write().expect("write BENCH_throughput.json");
    println!("\nreport: {}", path.display());
}
