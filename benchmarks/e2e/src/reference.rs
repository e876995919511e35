//! Plain-Rust f64 references for every kernel the benchmark sends, and
//! the outcome check that feeds `correct` and `failed`.
//!
//! Operands are regenerated with the server's own deterministic fill
//! (`fill_value`), so a reference needs only the request's program and
//! `fill_seed`. Each output element is compared against the reference
//! relative to the magnitude of the terms that produced it (the sum of
//! their absolute values), which is the error a reordered f64
//! reduction can actually reach.

use std::collections::{BTreeMap, HashMap};

use fblas_serve::protocol::fill_value;
use fblas_serve::{Response, STATUS_FAILED, STATUS_OK, STATUS_REJECTED};

use crate::drive::Record;
use crate::workload::{Expect, Kernel, Spec, CHAOS_RETRY_MAX};

/// Largest accepted error relative to the magnitude of the terms.
pub const REL_TOL: f64 = 1e-9;

/// A reference value with the magnitude its error is measured against.
#[derive(Debug, Clone, Copy)]
pub struct Ref {
    pub value: f64,
    pub scale: f64,
}

/// Every checked output of one (kernel, fill seed), by operand name.
pub type Outputs = BTreeMap<&'static str, Vec<Ref>>;

fn fill(seed: u64, name: &str, len: usize) -> Vec<f64> {
    (0..len).map(|i| fill_value(seed, name, i)).collect()
}

/// `alpha·op(A)·x + beta·y` for a row-major n×n `A`.
fn gemv(a: &[f64], n: usize, trans: bool, alpha: f64, x: &[f64], beta: f64, y: &[f64]) -> Vec<Ref> {
    (0..n)
        .map(|i| {
            let (mut value, mut scale) = (beta * y[i], (beta * y[i]).abs());
            for (j, xj) in x.iter().enumerate() {
                let aij = if trans { a[j * n + i] } else { a[i * n + j] };
                let t = alpha * aij * xj;
                value += t;
                scale += t.abs();
            }
            Ref { value, scale }
        })
        .collect()
}

fn dot(x: impl Iterator<Item = (f64, f64)>) -> Ref {
    let (value, scale) = x.fold((0.0, 0.0), |(v, s), (a, b)| (v + a * b, s + (a * b).abs()));
    Ref { value, scale }
}

/// The reference outputs of `kernel` under `seed`.
pub fn reference(kernel: &Kernel, seed: u64) -> Outputs {
    let mut out = Outputs::new();
    match *kernel {
        Kernel::Gemv { n, alpha, beta } => {
            let (a, x, y) = (
                fill(seed, "A", n * n),
                fill(seed, "x", n),
                fill(seed, "y", n),
            );
            out.insert("o", gemv(&a, n, false, alpha, &x, beta, &y));
        }
        Kernel::Gemver { n, alpha, beta } => {
            let a = fill(seed, "A", n * n);
            let (u1, v1) = (fill(seed, "u1", n), fill(seed, "v1", n));
            let (u2, v2) = (fill(seed, "u2", n), fill(seed, "v2", n));
            let (y, z) = (fill(seed, "y", n), fill(seed, "z", n));
            let b: Vec<f64> = (0..n * n)
                .map(|k| {
                    let (i, j) = (k / n, k % n);
                    a[k] + u1[i] * v1[j] + u2[i] * v2[j]
                })
                .collect();
            let x = gemv(&b, n, true, beta, &y, 1.0, &z);
            let xv: Vec<f64> = x.iter().map(|r| r.value).collect();
            out.insert("w", gemv(&b, n, false, alpha, &xv, 0.0, &vec![0.0; n]));
            out.insert("x", x);
        }
        Kernel::Axpydot { n, alpha } => {
            let (w, v, u) = (fill(seed, "w", n), fill(seed, "v", n), fill(seed, "u", n));
            let z = (0..n).map(|i| (w[i] - alpha * v[i], u[i]));
            out.insert("beta", vec![dot(z)]);
        }
        Kernel::Bicg { n } => {
            let a = fill(seed, "A", n * n);
            let (p, r) = (fill(seed, "p", n), fill(seed, "r", n));
            let zero = vec![0.0; n];
            out.insert("q", gemv(&a, n, false, 1.0, &p, 0.0, &zero));
            out.insert("s", gemv(&a, n, true, 1.0, &r, 0.0, &zero));
        }
        Kernel::Dot { n } => {
            let pairs = (0..n).map(|i| (fill_value(seed, "x", i), fill_value(seed, "y", i)));
            out.insert("d", vec![dot(pairs)]);
        }
        Kernel::Reject => {}
    }
    out
}

/// The values a response carries for `name`: a returned buffer, or a
/// DOT scalar as a one-element slice.
fn returned<'r>(resp: &'r Response, name: &str) -> Option<&'r [f64]> {
    resp.outputs
        .get(name)
        .map(Vec::as_slice)
        .or_else(|| resp.scalars.get(name).map(std::slice::from_ref))
}

/// Compare a successful response's outputs against the reference.
pub fn check_values(resp: &Response, want: &Outputs) -> Result<(), String> {
    for (name, refs) in want {
        let got = returned(resp, name).ok_or_else(|| format!("output `{name}` missing"))?;
        if got.len() != refs.len() {
            return Err(format!(
                "output `{name}` has {} elements, expected {}",
                got.len(),
                refs.len()
            ));
        }
        for (i, (g, r)) in got.iter().zip(refs).enumerate() {
            let err = (g - r.value).abs() / r.scale.max(f64::MIN_POSITIVE);
            if err.is_nan() || err > REL_TOL {
                return Err(format!(
                    "output `{name}`[{i}] = {g:e}, reference {:e} (relative error {err:e})",
                    r.value
                ));
            }
        }
    }
    Ok(())
}

/// Check a response's status and kind against what `spec` should get.
/// Values of successful responses are checked separately.
pub fn check_outcome(spec: &Spec, resp: &Response) -> Result<(), String> {
    let kind = resp.kind.as_deref();
    match spec.expect() {
        Expect::Ok if resp.status == STATUS_OK => Ok(()),
        Expect::LintReject if resp.status == STATUS_REJECTED && kind == Some("lint") => Ok(()),
        Expect::ChaosFailure if resp.status == STATUS_FAILED && kind == Some("corruption") => {
            let attempts = resp
                .recovery
                .as_ref()
                .and_then(|r| r.get("attempts"))
                .and_then(|a| a.as_array())
                .map_or(0, Vec::len);
            if attempts == CHAOS_RETRY_MAX as usize {
                Ok(())
            } else {
                Err(format!(
                    "chaos failure after {attempts} attempt(s), expected {CHAOS_RETRY_MAX}"
                ))
            }
        }
        expect => Err(format!(
            "expected {expect:?}, got status `{}` kind {kind:?}: {}",
            resp.status,
            resp.detail.as_deref().unwrap_or("")
        )),
    }
}

/// FNV-1a over the bits of every returned value, in name order: two
/// responses to the same (program, fill seed) must hash equal.
pub fn fingerprint(resp: &Response) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, x) in &resp.scalars {
        eat(name.as_bytes());
        eat(&x.to_bits().to_le_bytes());
    }
    for (name, v) in &resp.outputs {
        eat(name.as_bytes());
        v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes()));
    }
    eat(resp.status.as_bytes());
    h
}

/// Classifies every record and remembers the first answer to each
/// (program, fill seed) so repeats can be compared bit for bit.
#[derive(Default)]
pub struct Verifier {
    refs: HashMap<(String, u64), Outputs>,
    prints: HashMap<(String, u64), u64>,
    /// Records checked.
    pub attempted: u64,
    /// Records with an unexpected outcome: wrong status or kind, wrong
    /// values or bits, shed, or transport error.
    pub failed: u64,
    /// Wrong values or bits: the run's outputs are not correct.
    pub wrong: Vec<String>,
}

impl Verifier {
    /// Share of the records checked so far whose outcome was the
    /// expected one: `1 - failed / attempted`.
    pub fn expected_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Check one record.
    pub fn check(&mut self, r: &Record) {
        self.attempted += 1;
        if let Err(why) = self.verdict(r) {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("fblas_e2e: request {} unexpected: {why}", r.id);
            }
        }
    }

    fn verdict(&mut self, r: &Record) -> Result<(), String> {
        let resp = r.resp.as_ref()?;
        check_outcome(&r.spec, resp)?;
        if r.spec.expect() != Expect::Ok {
            return Ok(());
        }
        let key = (r.spec.kernel.program_json(), r.spec.fill_seed);
        let want = self
            .refs
            .entry(key.clone())
            .or_insert_with(|| reference(&r.spec.kernel, r.spec.fill_seed));
        let wrong = check_values(resp, want).err().or_else(|| {
            let print = fingerprint(resp);
            let first = *self.prints.entry(key).or_insert(print);
            (first != print).then(|| "not bit-identical to the first answer".to_string())
        });
        match wrong {
            Some(why) => {
                let why = format!("{} request {}: {why}", r.spec.kernel.kind(), r.id);
                self.wrong.push(why.clone());
                Err(why)
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemver_reference_matches_the_definition_on_a_tiny_case() {
        // With n = 1 every product is a scalar product.
        let k = Kernel::Gemver {
            n: 1,
            alpha: 2.0,
            beta: 3.0,
        };
        let s = 99;
        let f = |name| fill_value(s, name, 0);
        let b = f("A") + f("u1") * f("v1") + f("u2") * f("v2");
        let x = 3.0 * b * f("y") + f("z");
        let out = reference(&k, s);
        assert!((out["x"][0].value - x).abs() < 1e-15);
        assert!((out["w"][0].value - 2.0 * b * x).abs() < 1e-15);
    }

    #[test]
    fn value_check_accepts_reordered_sums_and_rejects_wrong_values() {
        let k = Kernel::Dot { n: 1000 };
        let want = reference(&k, 5);
        let mut resp = Response::skeleton(1, "t", STATUS_OK, 200);
        // Summing in reverse order changes the last bits, not the answer.
        let rev: f64 = (0..1000)
            .rev()
            .map(|i| fill_value(5, "x", i) * fill_value(5, "y", i))
            .sum();
        resp.scalars.insert("d".into(), rev);
        assert!(check_values(&resp, &want).is_ok());
        resp.scalars.insert("d".into(), rev + 1e-3);
        assert!(check_values(&resp, &want).is_err());
        resp.scalars.clear();
        assert!(check_values(&resp, &want).is_err(), "missing output");
    }
}
