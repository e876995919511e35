//! Seeded scheduler fuzzer for the simulator's stall detection.
//!
//! The simulator declares a deadlock the moment every live module is
//! blocked on a channel, with no timeout: the count of blocked modules is
//! exact because whoever makes a parked waiter's condition true stops
//! counting it, before that waiter's thread runs. The verdict therefore
//! must not depend on the schedule. This suite runs `lint_differential`'s
//! seeded corpus (`fblas_lint::harness::random_graph`) once unperturbed,
//! then again with seeded 0–200 µs delays injected at channel operations
//! and with several simulations sharing the cores, and asserts for every
//! graph:
//!
//! * no graph lint accepts is reported as stalled;
//! * every graph lint rejects for deadlock returns `SimError::Stall`;
//! * the perturbed stall names the same blocked set (module, channel,
//!   direction) as the unperturbed one. A network of deterministic
//!   actors over SPSC FIFOs has one deadlock state whatever the
//!   interleaving, so any difference is a detection bug.
//!
//! The tier-1 test runs one 60-seed block jittered and oversubscribed;
//! the full 240-seed sweep over every perturbation is `#[ignore]`d and
//! run by `ci.sh` (`cargo test --release -p fblas-lint --test
//! schedule_fuzz -- --ignored`).

// Test code may unwrap; the clippy.toml discipline targets library code.
#![allow(clippy::disallowed_methods)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fblas_hlssim::{FaultAction, FaultHook, FaultSite, ModuleFault, SimError, WaitDirection};
use fblas_lint::harness::{random_graph, simulate};

/// Simulations run at once when oversubscribing: module threads then
/// outnumber the cores of a 2-vCPU host several times over. Never more,
/// so the suite stays small on a shared machine.
const OVERSUBSCRIBED: usize = 4;

/// Delays at most one channel operation in `DELAY_ONE_IN`.
const DELAY_ONE_IN: u64 = 3;

/// Upper bound of an injected delay, µs.
const MAX_DELAY_US: u64 = 200;

/// A fault hook that only perturbs the schedule: a seeded pseudo-random
/// subset of channel operations sleeps 0–200 µs, keyed by (seed, site,
/// channel, element index) so a seed names its delays.
struct Jitter {
    seed: u64,
}

impl FaultHook for Jitter {
    fn on_channel(&self, site: FaultSite, channel: &str, index: u64) -> Option<FaultAction> {
        let mut h = mix(self.seed ^ u64::from(site == FaultSite::Pop));
        for b in channel.bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ index);
        h.is_multiple_of(DELAY_ONE_IN)
            .then_some(FaultAction::Delay {
                micros: (h >> 8) % (MAX_DELAY_US + 1),
            })
    }

    fn on_module_start(&self, _module: &str) -> Option<ModuleFault> {
        None
    }
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What one run said: completed, or stalled with this blocked set
/// (sorted by module and channel, as the report lists it).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    Completed,
    Stalled(Vec<(String, String, WaitDirection)>),
}

#[derive(Debug, Clone, Copy)]
struct Perturbation {
    jitter: bool,
    concurrent: usize,
}

const UNPERTURBED: Perturbation = Perturbation {
    jitter: false,
    concurrent: 1,
};
const JITTERED: Perturbation = Perturbation {
    jitter: true,
    concurrent: 1,
};
const OVERSUBSCRIBED_ONLY: Perturbation = Perturbation {
    jitter: false,
    concurrent: OVERSUBSCRIBED,
};
const JITTERED_OVERSUBSCRIBED: Perturbation = Perturbation {
    jitter: true,
    concurrent: OVERSUBSCRIBED,
};

/// Run the corpus graph `seed` at its configured capacities.
fn run(seed: u64, jitter: bool) -> Verdict {
    let rg = random_graph(seed);
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    let hook = jitter.then(|| Arc::new(Jitter { seed: mix(seed) }) as Arc<dyn FaultHook>);
    match simulate(&rg, &caps, hook) {
        Ok(_) => Verdict::Completed,
        Err(SimError::Stall { report }) => Verdict::Stalled(
            report
                .blocked
                .into_iter()
                .map(|b| (b.module, b.channel, b.direction))
                .collect(),
        ),
        Err(e) => panic!("seed {seed}: neither completion nor stall: {e}"),
    }
}

/// Run every seed under `p`, `p.concurrent` simulations at a time.
fn run_all(seeds: Range<u64>, p: Perturbation) -> Vec<(u64, Verdict)> {
    let next = AtomicU64::new(seeds.start);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..p.concurrent {
            s.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= seeds.end {
                    break;
                }
                let v = run(seed, p.jitter);
                out.lock().unwrap().push((seed, v));
            });
        }
    });
    let mut out = out.into_inner().unwrap();
    out.sort_by_key(|(seed, _)| *seed);
    out
}

/// The three assertions for one block of seeds under each perturbation.
fn fuzz_block(seeds: Range<u64>, perturbations: &[Perturbation]) {
    let (mut completions, mut deadlocks) = (0, 0);
    let baseline = run_all(seeds.clone(), UNPERTURBED);
    for (seed, unperturbed) in &baseline {
        let lint_accepts = random_graph(*seed).analyze().is_completed();
        match (lint_accepts, unperturbed) {
            (true, Verdict::Completed) => completions += 1,
            (false, Verdict::Stalled(_)) => deadlocks += 1,
            (_, v) => panic!("seed {seed}: lint accepts = {lint_accepts}, simulator: {v:?}"),
        }
    }
    assert!(
        completions > 0 && deadlocks > 0,
        "the block must hold both verdicts, or the test is vacuous"
    );
    for &p in perturbations {
        for ((seed, unperturbed), (_, perturbed)) in baseline.iter().zip(run_all(seeds.clone(), p))
        {
            assert_eq!(
                &perturbed, unperturbed,
                "seed {seed} under {p:?}: verdict or blocked set moved with the schedule"
            );
        }
    }
}

#[test]
fn stall_verdicts_survive_jitter_and_oversubscription() {
    fuzz_block(0..60, &[JITTERED_OVERSUBSCRIBED]);
}

#[test]
#[ignore = "full 240-seed sweep; ci.sh runs it with --ignored"]
fn full_sweep_under_every_perturbation() {
    for block in 0..4 {
        fuzz_block(
            block * 60..(block + 1) * 60,
            &[JITTERED, OVERSUBSCRIBED_ONLY, JITTERED_OVERSUBSCRIBED],
        );
    }
}
