//! Load generation against an in-process server, through the JSON-lines
//! protocol only: lockstep [`Client`]s for the closed loops, one
//! pipelined connection (a sender and a receiver thread) for the open
//! loop.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fblas_serve::{parse_response, Client, Response, ServeConfig, Server};
use serde_json::Value;

use crate::reference::check_outcome;
use crate::stats::{median, percentile, quantile, sorted, windowed_median};
use crate::workload::{Plan, Spec, SLO};
use crate::Metric;

/// Every field explicit: the benchmark never reads the `FBLAS_SERVE_*`
/// knobs. Quotas and breakers are effectively off so that counts stay
/// deterministic and the chaos tenant spends its whole retry budget on
/// every request.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 1024,
        tenant_qps: 1_000_000,
        tenant_burst: 1_000_000,
        breaker: 1_000_000,
        drain: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
    }
}

/// How long a client waits for one response before calling it lost.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One request as the client saw it.
#[derive(Debug)]
pub struct Record {
    pub id: u64,
    pub spec: Spec,
    /// When the request was due: its send time in a closed loop, its
    /// scheduled time in the open loop.
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// The parsed response, or why there is none.
    pub resp: Result<Response, String>,
    /// Length of the response line.
    pub bytes: usize,
}

impl Record {
    /// Latency from due time to response, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// A `wall` field of the response, µs.
    pub fn wall_us(&self, field: &str) -> Option<f64> {
        let wall = self.resp.as_ref().ok()?.wall.as_ref()?;
        wall.get(field)?.as_f64()
    }
}

/// What one measured phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    /// Start of the phase to its last response, s.
    pub secs: f64,
    /// How late the sender sent each request, ms (open loop only).
    pub late_ms: Vec<f64>,
}

impl Phase {
    /// The requests whose latency the workload reports: the healthy
    /// tenant on `chaos_closed`, every request elsewhere.
    pub fn measured(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| !r.spec.chaos)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        sorted(self.measured().map(Record::latency_ms).collect())
    }

    /// The gated latency: the mean latency of each of
    /// [`crate::stats::WINDOWS`] equal spans of due time, median over
    /// the spans. Unlike a percentile the mean does not jump between the
    /// latency clusters that the simulator's 5 ms watchdog poll makes of
    /// a mix.
    pub fn mean_ms(&self) -> f64 {
        windowed_median(&self.timed_latencies_ms(), |s| {
            s.iter().sum::<f64>() / s.len() as f64
        })
    }

    /// The mean of the slowest tenth of each span's latencies, median
    /// over the spans. Unlike p90 it does not jump from one
    /// watchdog-tick cluster to the next, but it follows how many
    /// requests catch an extra tick, which host contention decides.
    pub fn tail_mean_ms(&self) -> f64 {
        windowed_median(&self.timed_latencies_ms(), |s| {
            let tail = &s[s.len() - s.len().div_ceil(10)..];
            tail.iter().sum::<f64>() / tail.len() as f64
        })
    }

    /// (due time in s since the phase's first due time, latency in ms)
    /// of every measured request.
    fn timed_latencies_ms(&self) -> Vec<(f64, f64)> {
        let Some(first) = self.measured().map(|r| r.due).min() else {
            return Vec::new();
        };
        self.measured()
            .map(|r| (r.due.duration_since(first).as_secs_f64(), r.latency_ms()))
            .collect()
    }

    /// Requests whose response came back, per second of the phase.
    pub fn rps(&self) -> f64 {
        self.records.iter().filter(|r| r.resp.is_ok()).count() as f64 / self.secs
    }

    /// Operand elements the server bound, over the requests that came
    /// back (a lint rejection binds none).
    pub fn elements(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.resp.is_ok())
            .map(|r| r.spec.kernel.elements())
            .sum()
    }

    /// Share of requests answered with the expected outcome within the
    /// SLO, counted from the due time.
    pub fn slo_hit_ratio(&self) -> f64 {
        let slo_ms = SLO.as_secs_f64() * 1e3;
        let hits = self
            .records
            .iter()
            .filter(|r| {
                r.resp
                    .as_ref()
                    .is_ok_and(|resp| check_outcome(&r.spec, resp).is_ok())
                    && r.latency_ms() <= slo_ms
            })
            .count();
        hits as f64 / self.records.len().max(1) as f64
    }

    /// Figures a run prints beside the gated metrics but that not every
    /// workload has, or that are not steady enough on every workload to
    /// gate: the median, the tail mean, p99 where the sample supports
    /// it, the streaming rate, the chaos tenant's time to failure, and
    /// the open loop's SLO share and generator lateness.
    pub fn figures(&self) -> Vec<Metric> {
        let lat = self.latencies_ms();
        let mut out = vec![
            Metric::new("p50_ms", median(&lat), "ms"),
            Metric::new("tail_mean_ms", self.tail_mean_ms(), "ms"),
        ];
        if let Some(p99) = percentile(&lat, 0.99) {
            out.push(Metric::new("p99_ms", p99, "ms"));
        }
        out.push(Metric::new(
            "elems_per_s",
            self.elements() as f64 / self.secs,
            "1/s",
        ));
        let chaos: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.spec.chaos)
            .map(Record::latency_ms)
            .collect();
        if !chaos.is_empty() {
            out.push(Metric::new("chaos_p50_ms", median(&chaos), "ms"));
        }
        if !self.late_ms.is_empty() {
            out.push(Metric::new(
                "slo_hit_ratio",
                self.slo_hit_ratio(),
                "fraction",
            ));
            out.push(Metric::new(
                "gen_late_p99_ms",
                quantile(self.late_ms.clone(), 0.99),
                "ms",
            ));
        }
        out
    }

    /// The latency distribution for the run summary: sample count,
    /// quantiles and the median per kernel.
    pub fn summary(&self) -> Vec<(&'static str, Value)> {
        let lat = self.latencies_ms();
        let quantiles = [0.05, 0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
            .iter()
            .map(|q| {
                (
                    format!("p{}", q * 100.0),
                    Value::F64(quantile(lat.clone(), *q)),
                )
            })
            .collect();
        let mut kinds: Vec<&str> = self.records.iter().map(|r| r.spec.kernel.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let per_kind = kinds
            .into_iter()
            .map(|kind| {
                let v: Vec<f64> = self
                    .measured()
                    .filter(|r| r.spec.kernel.kind() == kind)
                    .map(Record::latency_ms)
                    .collect();
                (kind.to_string(), Value::F64(median(&v)))
            })
            .collect();
        vec![
            ("samples", Value::U64(lat.len() as u64)),
            ("quantiles_ms", Value::Object(quantiles)),
            ("kernel_p50_ms", Value::Object(per_kind)),
        ]
    }
}

/// Send one request on a lockstep client and time it.
fn roundtrip(c: &mut Client, id: u64, spec: Spec) -> Record {
    let line = spec.line(id);
    let sent = Instant::now();
    let raw = c.roundtrip_line(&line);
    let done = Instant::now();
    let bytes = raw.as_ref().map_or(0, String::len);
    let resp = raw
        .map_err(|e| format!("transport: {e}"))
        .and_then(|l| parse_response(&l));
    Record {
        id,
        spec,
        due: sent,
        sent,
        done,
        resp,
        bytes,
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with_timeout(addr, READ_TIMEOUT).expect("benchmark client connects")
}

/// Start a server and answer one request of every program kind the
/// workload sends, `reps` times; every server but the last is drained.
/// Returns the last server, each set-up's seconds, and the warm-up
/// records (their outputs are checked like any other).
pub fn set_up(plan: &Plan, reps: usize) -> (Server, Vec<f64>, Vec<Record>) {
    let mut times = Vec::with_capacity(reps);
    let mut records = Vec::new();
    for rep in 0..reps {
        let t0 = Instant::now();
        let server = Server::start(config()).expect("benchmark server binds an ephemeral port");
        let mut c = connect(server.addr());
        for (k, spec) in plan.warm_specs().into_iter().enumerate() {
            records.push(roundtrip(&mut c, (rep * 100 + k) as u64, spec));
        }
        times.push(t0.elapsed().as_secs_f64());
        drop(c);
        if rep + 1 == reps {
            return (server, times, records);
        }
        let outcome = server.drain();
        assert!(outcome.clean, "set-up server drains cleanly");
    }
    unreachable!("reps >= 1")
}

/// Run the workload's lockstep connections for `window`; ids start at
/// `id_base`.
pub fn closed_loop(addr: SocketAddr, plan: &Plan, window: Duration, id_base: u64) -> Phase {
    let start = Instant::now();
    let end = start + window;
    let per_conn: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.workload.connections())
            .map(|conn| {
                s.spawn(move || {
                    let mut c = connect(addr);
                    let mut out = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < end {
                        let id = id_base + conn as u64 * 100_000_000 + i;
                        out.push(roundtrip(&mut c, id, plan.closed(conn, i)));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let records: Vec<Record> = per_conn.into_iter().flatten().collect();
    let last = records.iter().map(|r| r.done).max().unwrap_or(start);
    Phase {
        records,
        secs: last.duration_since(start).as_secs_f64(),
        late_ms: Vec::new(),
    }
}

/// Send `schedule` on one pipelined connection, each request at its due
/// time regardless of outstanding responses, and match responses by id.
pub fn open_loop(addr: SocketAddr, schedule: &[(Duration, Spec)], id_base: u64) -> Phase {
    let stream = TcpStream::connect(addr).expect("open-loop client connects");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the client socket");
    // A short lead so the first request is not late by thread start-up.
    let start = Instant::now() + Duration::from_millis(20);
    let n = schedule.len();

    let (sent, answers) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (k, (offset, spec)) in schedule.iter().enumerate() {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut line = spec.line(id_base + k as u64);
                line.push('\n');
                let at = Instant::now();
                let ok = writer.write_all(line.as_bytes()).is_ok();
                sent.push((at, ok));
            }
            sent
        });
        let receiver = s.spawn(|| {
            let mut reader = BufReader::new(stream);
            let mut answers: HashMap<u64, (Instant, Result<Response, String>, usize)> =
                HashMap::with_capacity(n);
            let mut line = String::new();
            while answers.len() < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        let resp = parse_response(line.trim_end());
                        let id = resp.as_ref().map_or(0, |r| r.id);
                        answers.insert(id, (at, resp, line.len()));
                    }
                }
            }
            answers
        });
        (
            sender.join().expect("open-loop sender thread"),
            receiver.join().expect("open-loop receiver thread"),
        )
    });

    let mut answers = answers;
    let mut records = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    for (k, ((offset, spec), (at, ok))) in schedule.iter().zip(sent).enumerate() {
        let id = id_base + k as u64;
        let due = start + *offset;
        late_ms.push(at.duration_since(due).as_secs_f64() * 1e3);
        let (done, resp, bytes) = match answers.remove(&id) {
            Some(a) if ok => a,
            _ => (Instant::now(), Err("transport: no response".to_string()), 0),
        };
        records.push(Record {
            id,
            spec: spec.clone(),
            due,
            sent: at,
            done,
            resp,
            bytes,
        });
    }
    let last = records.iter().map(|r| r.done).max().unwrap_or(start);
    Phase {
        records,
        secs: last.duration_since(start).as_secs_f64(),
        late_ms,
    }
}
