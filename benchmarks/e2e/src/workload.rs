//! The four workloads and the requests they send.
//!
//! Everything here is a pure function of `--seed`: the kernel mix, the
//! operand fill seeds, the coefficients and the open-loop arrival
//! schedule. The program under test only ever sees the generated
//! request lines.

use std::time::Duration;

/// SplitMix64 — the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A coefficient in `[-2, 2)` that is never close to zero.
    fn coef(&mut self) -> f64 {
        let c = self.unit() * 4.0 - 2.0;
        if c.abs() < 0.25 {
            c + 0.5
        } else {
            c
        }
    }
}

/// One program the benchmark sends; sizes and coefficients are part of
/// the program text, operand values come from the request's
/// `fill_seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `o = alpha·A·x + beta·y`, `A` n×n.
    Gemv { n: usize, alpha: f64, beta: f64 },
    /// `B = A + u1·v1ᵀ + u2·v2ᵀ; x = beta·Bᵀ·y + z; w = alpha·B·x`.
    Gemver { n: usize, alpha: f64, beta: f64 },
    /// `z = w - alpha·v; beta = zᵀu`.
    Axpydot { n: usize, alpha: f64 },
    /// `q = A·p; s = Aᵀ·r`.
    Bicg { n: usize },
    /// `d = xᵀy`.
    Dot { n: usize },
    /// References an undeclared operand: fblas-lint rejects it at
    /// admission.
    Reject,
}

/// Planner tile edge for an n×n operand: whole-matrix tiles up to 256.
fn tile(n: usize) -> usize {
    n.min(256)
}

impl Kernel {
    /// Short kind name (summary tables, trace spans).
    pub fn kind(&self) -> &'static str {
        match self {
            Kernel::Gemv { .. } => "gemv",
            Kernel::Gemver { .. } => "gemver",
            Kernel::Axpydot { .. } => "axpydot",
            Kernel::Bicg { .. } => "bicg",
            Kernel::Dot { .. } => "dot",
            Kernel::Reject => "reject",
        }
    }

    /// Operand elements the server binds (fills) for one request.
    pub fn elements(&self) -> u64 {
        let e = match *self {
            Kernel::Gemv { n, .. } => n * n + 3 * n,
            Kernel::Gemver { n, .. } => 3 * n * n + 8 * n,
            Kernel::Axpydot { n, .. } => 4 * n,
            Kernel::Bicg { n } => n * n + 4 * n,
            Kernel::Dot { n } => 2 * n,
            Kernel::Reject => 0,
        };
        e as u64
    }

    /// The `"program"` object in the lint dialect.
    pub fn program_json(&self) -> String {
        let vec =
            |name: &str, n: usize| format!(r#"{{"name":"{name}","kind":"vector","len":{n}}}"#);
        let mat = |name: &str, n: usize| {
            format!(r#"{{"name":"{name}","kind":"matrix","rows":{n},"cols":{n}}}"#)
        };
        let (operands, ops, cfg): (Vec<String>, Vec<String>, usize) = match *self {
            Kernel::Gemv { n, alpha, beta } => (
                vec![mat("A", n), vec("x", n), vec("y", n), vec("o", n)],
                vec![format!(
                    r#"{{"op":"gemv","alpha":{alpha:?},"beta":{beta:?},"a":"A","x":"x","y":"y","out":"o"}}"#
                )],
                n,
            ),
            Kernel::Gemver { n, alpha, beta } => (
                vec![
                    mat("A", n),
                    mat("B1", n),
                    mat("B", n),
                    vec("u1", n),
                    vec("v1", n),
                    vec("u2", n),
                    vec("v2", n),
                    vec("y", n),
                    vec("z", n),
                    vec("x", n),
                    vec("w", n),
                ],
                vec![
                    r#"{"op":"ger","alpha":1.0,"a":"A","x":"u1","y":"v1","out":"B1"}"#.into(),
                    r#"{"op":"ger","alpha":1.0,"a":"B1","x":"u2","y":"v2","out":"B"}"#.into(),
                    format!(
                        r#"{{"op":"gemv","alpha":{beta:?},"beta":1.0,"a":"B","transposed":true,"x":"y","y":"z","out":"x"}}"#
                    ),
                    format!(r#"{{"op":"gemv","alpha":{alpha:?},"a":"B","x":"x","out":"w"}}"#),
                ],
                n,
            ),
            Kernel::Axpydot { n, alpha } => (
                vec![
                    vec("w", n),
                    vec("v", n),
                    vec("u", n),
                    vec("z", n),
                    r#"{"name":"beta","kind":"scalar"}"#.into(),
                ],
                vec![
                    format!(
                        r#"{{"op":"axpy","alpha":{:?},"x":"v","y":"w","out":"z"}}"#,
                        -alpha
                    ),
                    r#"{"op":"dot","x":"z","y":"u","out":"beta"}"#.into(),
                ],
                256,
            ),
            Kernel::Bicg { n } => (
                vec![
                    mat("A", n),
                    vec("p", n),
                    vec("r", n),
                    vec("q", n),
                    vec("s", n),
                ],
                vec![
                    r#"{"op":"gemv","alpha":1.0,"a":"A","x":"p","out":"q"}"#.into(),
                    r#"{"op":"gemv","alpha":1.0,"a":"A","transposed":true,"x":"r","out":"s"}"#
                        .into(),
                ],
                n,
            ),
            Kernel::Dot { n } => (
                vec![
                    vec("x", n),
                    vec("y", n),
                    r#"{"name":"d","kind":"scalar"}"#.into(),
                ],
                vec![r#"{"op":"dot","x":"x","y":"y","out":"d"}"#.into()],
                256,
            ),
            Kernel::Reject => (
                vec![vec("o", 8)],
                vec![r#"{"op":"scal","alpha":2.0,"x":"ghost","out":"o"}"#.into()],
                8,
            ),
        };
        let t = tile(cfg);
        format!(
            r#"{{"operands":[{}],"ops":[{}],"config":{{"tn":{t},"tm":{t}}}}}"#,
            operands.join(","),
            ops.join(",")
        )
    }

    /// The operands a response must carry: the final outputs only.
    pub fn want(&self) -> &'static [&'static str] {
        match self {
            Kernel::Gemv { .. } => &["o"],
            Kernel::Gemver { .. } => &["x", "w"],
            Kernel::Bicg { .. } => &["q", "s"],
            Kernel::Axpydot { .. } | Kernel::Dot { .. } | Kernel::Reject => &[],
        }
    }
}

/// Retry budget of a chaos request. Its fault rule is stacked this many
/// times, so the corruption outlives the budget: every attempt fails
/// its integrity checks and the request fails terminally.
pub const CHAOS_RETRY_MAX: u32 = 3;

/// One request before it is given an id.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub tenant: &'static str,
    pub kernel: Kernel,
    pub fill_seed: u64,
    pub chaos: bool,
}

/// What a correct server answers to a [`Spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `ok`, with outputs matching the reference.
    Ok,
    /// `rejected` with kind `lint`.
    LintReject,
    /// `failed` with kind `corruption` after the whole retry budget.
    ChaosFailure,
}

impl Spec {
    pub fn expect(&self) -> Expect {
        if self.chaos {
            Expect::ChaosFailure
        } else if self.kernel == Kernel::Reject {
            Expect::LintReject
        } else {
            Expect::Ok
        }
    }

    /// The request as one wire line (no newline).
    pub fn line(&self, id: u64) -> String {
        let want: Vec<String> = self
            .kernel
            .want()
            .iter()
            .map(|w| format!("{w:?}"))
            .collect();
        let chaos = if self.chaos {
            format!(
                r#","retry_max":{CHAOS_RETRY_MAX},"chaos":{{"seed":4242,"repeat":{CHAOS_RETRY_MAX},"faults":[{{"channel":"write_o","index":5,"bit":7}}]}}"#
            )
        } else {
            String::new()
        };
        format!(
            r#"{{"id":{id},"tenant":"{}","fill_seed":{},"want":[{}]{chaos},"program":{}}}"#,
            self.tenant,
            self.fill_seed,
            want.join(","),
            self.kernel.program_json()
        )
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallClosed,
    MixOpen,
    ChaosClosed,
    StreamClosed,
}

/// Latency limit (SLO) for the open loop, counted from the due time.
pub const SLO: Duration = Duration::from_millis(50);
/// Offered rate of the open loop's measured phase.
pub const REFERENCE_RPS: f64 = 25.0;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallClosed,
        Workload::MixOpen,
        Workload::ChaosClosed,
        Workload::StreamClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallClosed => "small_closed",
            Workload::MixOpen => "mix_open",
            Workload::ChaosClosed => "chaos_closed",
            Workload::StreamClosed => "stream_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Lockstep connections of a closed loop (0 for the open loop).
    pub fn connections(self) -> usize {
        match self {
            Workload::SmallClosed | Workload::ChaosClosed => 2,
            Workload::StreamClosed => 1,
            Workload::MixOpen => 0,
        }
    }
}

/// The per-request-floor program of `small_closed` and `chaos_closed`.
fn small_gemv() -> Kernel {
    Kernel::Gemv {
        n: 16,
        alpha: 1.5,
        beta: -0.25,
    }
}

/// The paper's kernels and compositions at sizes where each request
/// takes 140–210 ms of host time on a 2-vCPU x86-64 VM (so the ~5 ms
/// per-component floor is a few percent of it), balanced so that no
/// kernel dominates the round robin.
fn stream_kernels() -> [Kernel; 5] {
    [
        Kernel::Dot { n: 1 << 19 },
        Kernel::Axpydot {
            n: 80_000,
            alpha: 0.75,
        },
        Kernel::Gemv {
            n: 768,
            alpha: 1.5,
            beta: -0.25,
        },
        Kernel::Bicg { n: 304 },
        Kernel::Gemver {
            n: 208,
            alpha: 1.25,
            beta: 0.5,
        },
    ]
}

/// The per-seed inputs of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// Fill seeds the closed loops cycle through.
    fills: Vec<u64>,
    /// Seed of the open loop's schedule and mix.
    open_seed: u64,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0xE2E0_5EED);
        let fills = (0..8).map(|_| rng.next_u64() >> 16).collect();
        Plan {
            workload,
            fills,
            open_seed: rng.next_u64(),
        }
    }

    /// Request `i` of closed-loop connection `conn`.
    pub fn closed(&self, conn: usize, i: u64) -> Spec {
        let fill = |k: u64| self.fills[(k % self.fills.len() as u64) as usize];
        match self.workload {
            Workload::SmallClosed => Spec {
                tenant: "small",
                kernel: small_gemv(),
                fill_seed: fill(i + conn as u64),
                chaos: false,
            },
            Workload::ChaosClosed => Spec {
                tenant: if conn == 0 { "healthy" } else { "chaos" },
                kernel: small_gemv(),
                fill_seed: fill(i),
                chaos: conn == 1,
            },
            Workload::StreamClosed => {
                let kernels = stream_kernels();
                let k = kernels.len() as u64;
                Spec {
                    tenant: "stream",
                    kernel: kernels[(i % k) as usize],
                    // Two fill seeds per kernel: every request repeats
                    // an earlier one, so bit-identity is checked.
                    fill_seed: fill((i / k) % 2),
                    chaos: false,
                }
            }
            Workload::MixOpen => unreachable!("the open loop follows its schedule"),
        }
    }

    /// One request of every distinct program kind the workload sends:
    /// what set-up answers before measuring starts.
    pub fn warm_specs(&self) -> Vec<Spec> {
        match self.workload {
            Workload::SmallClosed => vec![self.closed(0, 0)],
            Workload::ChaosClosed => vec![self.closed(0, 0), self.closed(1, 0)],
            Workload::StreamClosed => (0..5).map(|i| self.closed(0, i)).collect(),
            Workload::MixOpen => {
                let mix = |kernel| Spec {
                    tenant: "mix",
                    kernel,
                    fill_seed: self.fills[0],
                    chaos: false,
                };
                let mut rng = Rng::new(self.open_seed);
                MIX.iter().map(|(_, make)| mix(make(&mut rng))).collect()
            }
        }
    }

    /// The open-loop schedule: `count` arrivals of a Poisson process
    /// over `window` (uniform order statistics, so the count is exact),
    /// each with a kernel drawn independently from the mix.
    pub fn open_schedule(&self, rps: f64, window: Duration, salt: u64) -> Vec<(Duration, Spec)> {
        let mut rng = Rng::new(self.open_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let count = (rps * window.as_secs_f64()).round() as usize;
        let mut due: Vec<f64> = (0..count).map(|_| rng.unit()).collect();
        due.sort_by(f64::total_cmp);
        due.into_iter()
            .map(|u| {
                let spec = Spec {
                    tenant: "mix",
                    kernel: mix_draw(&mut rng),
                    fill_seed: rng.next_u64() >> 16,
                    chaos: false,
                };
                (window.mul_f64(u), spec)
            })
            .collect()
    }
}

fn mix_gemv(rng: &mut Rng) -> Kernel {
    Kernel::Gemv {
        n: rng.range(8, 32),
        alpha: rng.coef(),
        beta: rng.coef(),
    }
}

fn mix_gemver(_: &mut Rng) -> Kernel {
    Kernel::Gemver {
        n: 32,
        alpha: 1.25,
        beta: 0.5,
    }
}

fn mix_axpydot(_: &mut Rng) -> Kernel {
    Kernel::Axpydot {
        n: 4096,
        alpha: 0.75,
    }
}

fn mix_bicg(_: &mut Rng) -> Kernel {
    Kernel::Bicg { n: 64 }
}

fn mix_reject(_: &mut Rng) -> Kernel {
    Kernel::Reject
}

/// Draws one kernel of a mix entry (sizes and coefficients, if any).
type MakeKernel = fn(&mut Rng) -> Kernel;

/// The open loop's mix: percent of requests per kernel. GEMV programs
/// carry fresh sizes and coefficients, so they almost never repeat; the
/// others repeat their program with fresh operands.
const MIX: [(u32, MakeKernel); 5] = [
    (55, mix_gemv),
    (15, mix_gemver),
    (15, mix_axpydot),
    (10, mix_bicg),
    (5, mix_reject),
];

/// One kernel drawn from [`MIX`], independently of every other request.
fn mix_draw(rng: &mut Rng) -> Kernel {
    let mut pct = rng.range(0, 99) as u32;
    let (_, make) = MIX
        .iter()
        .find(|(share, _)| {
            let hit = pct < *share;
            pct = pct.saturating_sub(*share);
            hit
        })
        .expect("MIX shares add up to 100");
    make(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules_and_mixes() {
        let a = Plan::new(Workload::MixOpen, 7);
        let b = Plan::new(Workload::MixOpen, 7);
        let window = Duration::from_secs(10);
        let sa = a.open_schedule(REFERENCE_RPS, window, 1);
        assert_eq!(sa, b.open_schedule(REFERENCE_RPS, window, 1));
        assert_eq!(
            sa.len(),
            (REFERENCE_RPS * 10.0) as usize,
            "the arrival count is exact"
        );
        assert!(
            sa.windows(2).all(|w| w[0].0 <= w[1].0),
            "sorted by due time"
        );
        assert!(sa.iter().all(|(due, _)| *due < window));
        assert_ne!(
            sa,
            Plan::new(Workload::MixOpen, 8).open_schedule(REFERENCE_RPS, window, 1)
        );
        assert_ne!(
            sa,
            a.open_schedule(REFERENCE_RPS, window, 2),
            "phases differ"
        );

        for w in [
            Workload::SmallClosed,
            Workload::ChaosClosed,
            Workload::StreamClosed,
        ] {
            let (a, b) = (Plan::new(w, 3), Plan::new(w, 3));
            for conn in 0..w.connections() {
                for i in 0..20 {
                    assert_eq!(a.closed(conn, i), b.closed(conn, i));
                    assert_eq!(a.closed(conn, i).line(i), b.closed(conn, i).line(i));
                }
            }
        }
    }

    #[test]
    fn the_open_mix_has_its_stated_shares() {
        let s = Plan::new(Workload::MixOpen, 1).open_schedule(1000.0, Duration::from_secs(20), 1);
        let share = |kind: &str| {
            s.iter().filter(|(_, x)| x.kernel.kind() == kind).count() as f64 / s.len() as f64
        };
        assert_eq!(MIX.iter().map(|m| m.0).sum::<u32>(), 100);
        // 20 000 independent draws: each share within 1.5 points.
        for (pct, make) in MIX {
            let kind = make(&mut Rng::new(0)).kind();
            let got = share(kind);
            assert!(
                (got - f64::from(pct) / 100.0).abs() < 0.015,
                "{kind}: {got}"
            );
        }
        // GEMV programs carry fresh coefficients: they almost never repeat.
        let gemv: Vec<String> = s
            .iter()
            .filter(|(_, x)| x.kernel.kind() == "gemv")
            .map(|(_, x)| x.kernel.program_json())
            .collect();
        let distinct: std::collections::HashSet<&String> = gemv.iter().collect();
        assert!(distinct.len() as f64 > 0.99 * gemv.len() as f64);
    }

    #[test]
    fn expectations_follow_the_spec() {
        let p = Plan::new(Workload::ChaosClosed, 1);
        assert_eq!(p.closed(0, 0).expect(), Expect::Ok);
        assert_eq!(p.closed(1, 0).expect(), Expect::ChaosFailure);
        let reject = Spec {
            tenant: "mix",
            kernel: Kernel::Reject,
            fill_seed: 0,
            chaos: false,
        };
        assert_eq!(reject.expect(), Expect::LintReject);
    }
}
