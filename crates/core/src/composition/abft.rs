//! Algorithm-based fault tolerance (ABFT) checksum guards.
//!
//! Each BLAS routine satisfies a cheap numeric identity relating the
//! checksum of its output to checksums of its inputs — the classic
//! Huang–Abraham construction specialized to the streamed operator set:
//!
//! * `copy`: `Σout = Σx`
//! * `scal`: `Σout = α·Σx`
//! * `axpy`: `Σout = α·Σx + Σy`
//! * `dot`:  the scalar result equals a lane-split `f64` recomputation
//! * `gemv`: `Σout = α·Σⱼ colsumⱼ(A)·xⱼ + β·Σy` (row sums when
//!   transposed)
//! * `ger`:  `ΣA' = ΣA + α·(Σx)(Σy)`
//!
//! The recovery layer ([`super::executor::ExecMode::Recover`])
//! evaluates these identities against the *staged* write-back buffers
//! before committing, so a corrupted result never reaches the caller's
//! device memory. Identities are evaluated in `f64` regardless of the
//! element type, with a tolerance scaled by the element epsilon, the
//! operation's flop count, and the magnitude of the data — wide enough
//! for legitimate reassociation, tight enough that any fault touching
//! an exponent or high-mantissa bit trips it. (Low-mantissa flips below
//! numeric noise are the channel digest guards' job: those are exact.)

use std::collections::HashMap;

use super::planner::{Op, Program};
use crate::host::buffer::DeviceBuffer;
use crate::scalar::Scalar;

/// Machine epsilon of the element type, in `f64`.
fn eps<T: Scalar>() -> f64 {
    if std::mem::size_of::<T>() == 4 {
        f32::EPSILON as f64
    } else {
        f64::EPSILON
    }
}

/// Independent `f64` partial sums a checksum is split over: element
/// `i` adds into lane `i mod LANES`, and the lanes are added at the end.
/// The lanes carry no dependence on one another, so the loop runs at
/// memory speed, and the split sum is at least as accurate as one
/// serial chain, whose error the tolerance already covers.
const LANES: usize = 8;

/// Sum and absolute-value sum of a buffer, in `f64`.
fn sums<T: Scalar>(v: &[T]) -> (f64, f64) {
    let (mut s, mut a) = ([0.0f64; LANES], [0.0f64; LANES]);
    let blocks = v.chunks_exact(LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for k in 0..LANES {
            let x = block[k].to_f64();
            s[k] += x;
            a[k] += x.abs();
        }
    }
    for (k, x) in tail.iter().enumerate() {
        let x = x.to_f64();
        s[k] += x;
        a[k] += x.abs();
    }
    (s.iter().sum(), a.iter().sum())
}

/// `xᵀy` and `Σ|xᵢyᵢ|` over the common length, in `f64`.
fn dot<T: Scalar>(xs: &[T], ys: &[T]) -> (f64, f64) {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let (mut s, mut a) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (xb, yb) = (xs.chunks_exact(LANES), ys.chunks_exact(LANES));
    let tail = xb.remainder().iter().zip(yb.remainder());
    for (x, y) in xb.zip(yb) {
        for k in 0..LANES {
            let p = x[k].to_f64() * y[k].to_f64();
            s[k] += p;
            a[k] += p.abs();
        }
    }
    for (k, (x, y)) in tail.enumerate() {
        let p = x.to_f64() * y.to_f64();
        s[k] += p;
        a[k] += p.abs();
    }
    (s.iter().sum(), a.iter().sum())
}

/// Tolerance for an identity over `work` flops at magnitude `scale`.
fn tol<T: Scalar>(work: usize, scale: f64) -> f64 {
    eps::<T>() * 8.0 * (work as f64 + 16.0) * scale.max(1.0)
}

/// The input half of one op's checksum identity: the output checksum
/// (for a DOT, the result) the identity predicts, the magnitude that
/// scales its tolerance, and the flop count. It reads the op's inputs
/// only, so when the component writes none of them it can be computed
/// while the component runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prediction {
    want: f64,
    scale: f64,
    work: usize,
}

/// Predictions by op index; an error names the input that could not be
/// read, and surfaces when the op is checked.
pub(crate) type Predictions = HashMap<usize, Result<Prediction, String>>;

/// [`predict`] every op of `ops` from `buffers`.
pub(crate) fn predict_ops<T: Scalar>(
    program: &Program,
    ops: &[usize],
    buffers: &HashMap<String, DeviceBuffer<T>>,
) -> Predictions {
    let resolve = |name: &str| buffers.get(name);
    ops.iter()
        .map(|&oi| (oi, predict::<T>(program, oi, &resolve)))
        .collect()
}

/// Check every op of a component against its checksum identity.
///
/// Operand values are resolved *staged-preferred*: an operand this
/// component wrote is read from the staged scratch buffer (the value
/// the downstream ops actually consumed and the commit would publish),
/// anything else from the caller's buffers, which still hold the
/// pre-component state because writes are staged. Buffers are read in
/// place. `scalars` holds the attempt's DOT results; `predicted` holds
/// the predictions already computed from the caller's buffers, and the
/// rest are computed here. Returns the first violated identity as a
/// human-readable detail string.
pub(crate) fn verify_component<T: Scalar>(
    program: &Program,
    ops: &[usize],
    staged: &HashMap<String, DeviceBuffer<T>>,
    buffers: &HashMap<String, DeviceBuffer<T>>,
    scalars: &HashMap<String, T>,
    predicted: &Predictions,
) -> Result<(), String> {
    let resolve = |name: &str| staged.get(name).or_else(|| buffers.get(name));
    for &oi in ops {
        let prediction = match predicted.get(&oi) {
            Some(p) => p.clone(),
            None => predict::<T>(program, oi, &resolve),
        };
        check_op::<T>(program, oi, prediction, &resolve, scalars)?;
    }
    Ok(())
}

/// The buffer `resolve` binds to `name`, or the op's error.
fn need<'b, T: Scalar>(
    resolve: &dyn Fn(&str) -> Option<&'b DeviceBuffer<T>>,
    oi: usize,
    name: &str,
) -> Result<&'b DeviceBuffer<T>, String> {
    resolve(name).ok_or_else(|| format!("abft: op {oi}: operand `{name}` has no buffer"))
}

/// (sum, absolute sum, length) of one operand.
fn sums_of<'b, T: Scalar>(
    resolve: &dyn Fn(&str) -> Option<&'b DeviceBuffer<T>>,
    oi: usize,
    name: &str,
) -> Result<(f64, f64, usize), String> {
    Ok(need(resolve, oi, name)?.with_read(|v| {
        let (s, a) = sums(v);
        (s, a, v.len())
    }))
}

/// The input half of op `oi`'s identity.
fn predict<'b, T: Scalar>(
    program: &Program,
    oi: usize,
    resolve: &dyn Fn(&str) -> Option<&'b DeviceBuffer<T>>,
) -> Result<Prediction, String> {
    let sums_of = |name: &str| sums_of(resolve, oi, name);
    let prediction = |want, scale, work| Prediction { want, scale, work };
    Ok(match &program.ops()[oi] {
        Op::Copy { x, .. } => {
            let (sx, ax, len) = sums_of(x)?;
            prediction(sx, ax, len)
        }
        Op::Scal { alpha, x, .. } => {
            let (sx, ax, len) = sums_of(x)?;
            prediction(alpha * sx, alpha.abs() * ax, len)
        }
        Op::Axpy { alpha, x, y, .. } => {
            let (sx, ax, len) = sums_of(x)?;
            let (sy, ay, _) = sums_of(y)?;
            prediction(alpha * sx + sy, alpha.abs() * ax + ay, len)
        }
        Op::Dot { x, y, .. } => {
            // One read guard per distinct buffer.
            let (xb, yb) = (need(resolve, oi, x)?, need(resolve, oi, y)?);
            let (want, scale, len) = xb.with_read(|xs| {
                let (want, scale) = if x == y {
                    dot(xs, xs)
                } else {
                    yb.with_read(|ys| dot(xs, ys))
                };
                (want, scale, xs.len())
            });
            prediction(want, scale, len)
        }
        Op::Gemv {
            alpha,
            beta,
            a,
            transposed,
            x,
            y,
            ..
        } => {
            let (n, m) = program
                .mat_dims(a)
                .map_err(|e| format!("abft: op {oi} (gemv): {e}"))?;
            let xb = need(resolve, oi, x)?;
            // Checksum along the dimension the products collapse over:
            // column sums of A pair with x for the plain product, row
            // sums for the transposed one. Column sums accumulate in
            // one pass over the rows, one accumulator per column, each
            // summing its column top to bottom.
            let (mut want, mut scale) = need(resolve, oi, a)?.with_read(|av| {
                xb.with_read(|xs| {
                    let (mut want, mut scale) = (0.0f64, 0.0f64);
                    if *transposed {
                        for (row, xi) in av.chunks(m.max(1)).take(n).zip(xs) {
                            let (rs, ra) = sums(row);
                            want += rs * xi.to_f64();
                            scale += ra * xi.to_f64().abs();
                        }
                    } else {
                        let (mut cs, mut ca) = (vec![0.0f64; m], vec![0.0f64; m]);
                        for row in av.chunks(m.max(1)).take(n) {
                            for ((c, a), v) in cs.iter_mut().zip(ca.iter_mut()).zip(row) {
                                let v = v.to_f64();
                                *c += v;
                                *a += v.abs();
                            }
                        }
                        for ((c, a), xj) in cs.iter().zip(&ca).zip(xs) {
                            want += c * xj.to_f64();
                            scale += a * xj.to_f64().abs();
                        }
                    }
                    (want, scale)
                })
            });
            want *= alpha;
            scale *= alpha.abs();
            // The executor zeroes the accumulator when no y is bound.
            if let Some(yn) = y {
                let (sy, ay, _) = sums_of(yn)?;
                want += beta * sy;
                scale += beta.abs() * ay;
            }
            prediction(want, scale, n * m)
        }
        Op::Ger { alpha, a, x, y, .. } => {
            let (sa, aa, _) = sums_of(a)?;
            let (sx, ax, _) = sums_of(x)?;
            let (sy, ay, _) = sums_of(y)?;
            let (n, m) = program
                .mat_dims(a)
                .map_err(|e| format!("abft: op {oi} (ger): {e}"))?;
            prediction(sa + alpha * sx * sy, aa + alpha.abs() * ax * ay, n * m)
        }
    })
}

/// The output half of op `oi`'s identity: the checksum of its output
/// (for a DOT, the stored result) against `prediction`.
fn check_op<'b, T: Scalar>(
    program: &Program,
    oi: usize,
    prediction: Result<Prediction, String>,
    resolve: &dyn Fn(&str) -> Option<&'b DeviceBuffer<T>>,
    scalars: &HashMap<String, T>,
) -> Result<(), String> {
    let op = &program.ops()[oi];
    let out = op.output();
    let routine = match op {
        Op::Copy { .. } => "copy",
        Op::Scal { .. } => "scal",
        Op::Axpy { .. } => "axpy",
        Op::Dot { .. } => "dot",
        Op::Gemv { .. } => "gemv",
        Op::Ger { .. } => "ger",
    };
    // A DOT reports a missing result before a missing input; every
    // other op reports its inputs before its output.
    let (got, p) = if let Op::Dot { .. } = op {
        let got = scalars
            .get(out)
            .map(|v| v.to_f64())
            .ok_or_else(|| format!("abft: op {oi} (dot): no result stored for `{out}`"))?;
        (got, prediction?)
    } else {
        let p = prediction?;
        (sums_of(resolve, oi, out)?.0, p)
    };
    let Prediction { want, scale, work } = p;
    let t = tol::<T>(work, scale);
    if (got - want).abs() <= t {
        Ok(())
    } else {
        Err(format!(
            "abft: op {oi} ({routine}): checksum of `{out}` is {got:.9e}, \
             identity predicts {want:.9e} (|Δ| = {:.3e} > tol {t:.3e})",
            (got - want).abs()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No prediction computed ahead: every op is checked inline.
    fn none() -> Predictions {
        Predictions::new()
    }

    fn buf(name: &str, data: Vec<f64>) -> (String, DeviceBuffer<f64>) {
        (name.to_string(), DeviceBuffer::from_vec(name, data, 0))
    }

    #[test]
    fn axpy_identity_accepts_clean_and_rejects_corrupt() {
        let n = 33;
        let mut p = Program::new();
        p.vector("x", n).vector("y", n).vector("z", n);
        p.op(Op::Axpy {
            alpha: 1.5,
            x: "x".into(),
            y: "y".into(),
            out: "z".into(),
        });
        let xv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let zv: Vec<f64> = xv.iter().zip(&yv).map(|(a, b)| 1.5 * a + b).collect();
        let buffers: HashMap<_, _> = [buf("x", xv), buf("y", yv)].into();
        let staged: HashMap<_, _> = [buf("z", zv.clone())].into();
        let scalars = HashMap::new();
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_ok());

        // Flip the sign bit of one element: a gross corruption the
        // checksum must catch.
        let mut bad = zv;
        bad[7] = -bad[7] - 1.0;
        let staged: HashMap<_, _> = [buf("z", bad)].into();
        let err =
            verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).unwrap_err();
        assert!(err.contains("axpy"), "{err}");
    }

    #[test]
    fn dot_identity_checks_the_scalar_map() {
        let n = 21;
        let mut p = Program::new();
        p.vector("x", n).vector("y", n).scalar("r");
        p.op(Op::Dot {
            x: "x".into(),
            y: "y".into(),
            out: "r".into(),
        });
        let xv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let r: f64 = xv.iter().zip(&yv).map(|(a, b)| a * b).sum();
        let buffers: HashMap<_, _> = [buf("x", xv), buf("y", yv)].into();
        let staged = HashMap::new();
        let mut scalars = HashMap::new();
        scalars.insert("r".to_string(), r);
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_ok());
        scalars.insert("r".to_string(), r + 0.5);
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_err());
        scalars.clear();
        let err =
            verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).unwrap_err();
        assert!(err.contains("no result"), "{err}");
    }

    #[test]
    fn gemv_identity_handles_both_orientations_and_beta() {
        let (n, m) = (9, 7);
        let av: Vec<f64> = (0..n * m).map(|i| (i as f64 * 0.13).sin()).collect();
        for transposed in [false, true] {
            let (xl, ol) = if transposed { (n, m) } else { (m, n) };
            let mut p = Program::new();
            p.matrix("A", n, m)
                .vector("x", xl)
                .vector("y", ol)
                .vector("o", ol);
            p.op(Op::Gemv {
                alpha: 0.9,
                beta: 0.4,
                a: "A".into(),
                transposed,
                x: "x".into(),
                y: Some("y".into()),
                out: "o".into(),
            });
            let xv: Vec<f64> = (0..xl).map(|i| (i as f64 * 0.21).cos()).collect();
            let yv: Vec<f64> = (0..ol).map(|i| (i as f64 * 0.17).sin()).collect();
            let mut ov = vec![0.0; ol];
            for i in 0..n {
                for j in 0..m {
                    let (oi, xi) = if transposed { (j, i) } else { (i, j) };
                    ov[oi] += 0.9 * av[i * m + j] * xv[xi];
                }
            }
            for (o, y) in ov.iter_mut().zip(&yv) {
                *o += 0.4 * y;
            }
            let buffers: HashMap<_, _> = [buf("A", av.clone()), buf("x", xv), buf("y", yv)].into();
            let staged: HashMap<_, _> = [buf("o", ov.clone())].into();
            let scalars = HashMap::new();
            assert!(
                verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_ok(),
                "transposed={transposed}"
            );
            let mut bad = ov;
            bad[0] += 1e-3;
            let staged: HashMap<_, _> = [buf("o", bad)].into();
            assert!(
                verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_err(),
                "transposed={transposed} corruption missed"
            );
        }
    }

    #[test]
    fn ger_identity_uses_the_pre_update_matrix() {
        let (n, m) = (6, 5);
        let mut p = Program::new();
        p.matrix("A", n, m)
            .matrix("B", n, m)
            .vector("x", n)
            .vector("y", m);
        p.op(Op::Ger {
            alpha: 1.1,
            a: "A".into(),
            x: "x".into(),
            y: "y".into(),
            out: "B".into(),
        });
        let av: Vec<f64> = (0..n * m).map(|i| (i as f64 * 0.41).sin()).collect();
        let xv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
        let yv: Vec<f64> = (0..m).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut bv = av.clone();
        for i in 0..n {
            for j in 0..m {
                bv[i * m + j] += 1.1 * xv[i] * yv[j];
            }
        }
        let buffers: HashMap<_, _> = [
            buf("A", av),
            buf("x", xv),
            buf("y", yv),
            buf("B", vec![0.0; n * m]),
        ]
        .into();
        let staged: HashMap<_, _> = [buf("B", bv.clone())].into();
        let scalars = HashMap::new();
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_ok());
        // Exponent-bit flip on one element.
        let mut bad = bv;
        bad[3] *= 2.0;
        bad[3] += 0.7;
        let staged: HashMap<_, _> = [buf("B", bad)].into();
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars, &none()).is_err());
    }

    /// Flip the top exponent bit: a gross corruption every identity
    /// must catch.
    fn flip_high_bit<T: Scalar>(v: T) -> T {
        if std::mem::size_of::<T>() == 4 {
            T::from_f64(f32::from_bits((v.to_f64() as f32).to_bits() ^ 1 << 30) as f64)
        } else {
            T::from_f64(f64::from_bits(v.to_f64().to_bits() ^ 1 << 62))
        }
    }

    /// Where a fault is planted in a stream of `len`: the last element,
    /// which falls past the last full block of lanes unless `len` is a
    /// multiple of them, and the first lane of the first full block.
    fn fault_sites(len: usize) -> Vec<usize> {
        let mut sites = vec![len - 1];
        if len >= LANES {
            sites.push(0);
        }
        sites
    }

    fn tbuf<T: Scalar>(name: &str, data: Vec<T>) -> (String, DeviceBuffer<T>) {
        (name.to_string(), DeviceBuffer::from_vec(name, data, 0))
    }

    /// Copy, axpy, dot and transposed gemv on lengths that leave a
    /// partial block of lanes (or no full one): clean results pass, and
    /// a high-bit flip in a tail element or a lane-aligned one fails.
    fn ragged_lengths_pass_clean_and_catch_flips<T: Scalar>() {
        let vals = |len: usize, f: f64| -> Vec<T> {
            (0..len)
                .map(|i| T::from_f64((i as f64 * f + 0.1).sin()))
                .collect()
        };
        let check = |p: &Program,
                     staged: Vec<(String, DeviceBuffer<T>)>,
                     buffers: Vec<(String, DeviceBuffer<T>)>,
                     scalars: &HashMap<String, T>| {
            let staged: HashMap<_, _> = staged.into_iter().collect();
            let buffers: HashMap<_, _> = buffers.into_iter().collect();
            verify_component::<T>(p, &[0], &staged, &buffers, scalars, &none())
        };
        let none = HashMap::new();
        for len in [1, 7, 9, 8 * 12 + 3] {
            let (xv, yv) = (vals(len, 0.37), vals(len, 0.11));

            let mut p = Program::new();
            p.vector("x", len).vector("z", len);
            p.op(Op::Copy {
                x: "x".into(),
                out: "z".into(),
            });
            let x = || vec![tbuf("x", xv.clone())];
            assert!(check(&p, vec![tbuf("z", xv.clone())], x(), &none).is_ok());
            for i in fault_sites(len) {
                let mut bad = xv.clone();
                bad[i] = flip_high_bit(bad[i]);
                let err = check(&p, vec![tbuf("z", bad)], x(), &none).unwrap_err();
                assert!(err.contains("copy"), "len {len} site {i}: {err}");
            }

            let alpha = T::from_f64(-0.8);
            let mut p = Program::new();
            p.vector("x", len).vector("y", len).vector("z", len);
            p.op(Op::Axpy {
                alpha: -0.8,
                x: "x".into(),
                y: "y".into(),
                out: "z".into(),
            });
            let zv: Vec<T> = xv
                .iter()
                .zip(&yv)
                .map(|(a, b)| alpha.mul_add(*a, *b))
                .collect();
            let xy = || vec![tbuf("x", xv.clone()), tbuf("y", yv.clone())];
            assert!(check(&p, vec![tbuf("z", zv.clone())], xy(), &none).is_ok());
            for i in fault_sites(len) {
                let mut bad = zv.clone();
                bad[i] = flip_high_bit(bad[i]);
                let err = check(&p, vec![tbuf("z", bad)], xy(), &none).unwrap_err();
                assert!(err.contains("axpy"), "len {len} site {i}: {err}");
            }

            // A dot's result is a scalar: the fault sits in an operand
            // the recomputation reads.
            let mut p = Program::new();
            p.vector("x", len).vector("y", len).scalar("r");
            p.op(Op::Dot {
                x: "x".into(),
                y: "y".into(),
                out: "r".into(),
            });
            let r = xv.iter().zip(&yv).fold(T::ZERO, |s, (a, b)| s + *a * *b);
            let scalars: HashMap<_, _> = [("r".to_string(), r)].into();
            assert!(check(&p, vec![], xy(), &scalars).is_ok());
            for i in fault_sites(len) {
                let mut bad = yv.clone();
                bad[i] = flip_high_bit(bad[i]);
                let buffers = vec![tbuf("x", xv.clone()), tbuf("y", bad)];
                let err = check(&p, vec![], buffers, &scalars).unwrap_err();
                assert!(err.contains("dot"), "len {len} site {i}: {err}");
            }

            // Transposed gemv over a 5 × len matrix: the row checksums
            // run over ragged rows.
            let n = 5;
            let av = vals(n * len, 0.13);
            let xv = vals(n, 0.21);
            let (alpha, beta) = (T::from_f64(0.9), T::from_f64(0.4));
            let mut p = Program::new();
            p.matrix("A", n, len)
                .vector("x", n)
                .vector("y", len)
                .vector("o", len);
            p.op(Op::Gemv {
                alpha: 0.9,
                beta: 0.4,
                a: "A".into(),
                transposed: true,
                x: "x".into(),
                y: Some("y".into()),
                out: "o".into(),
            });
            let ov: Vec<T> = (0..len)
                .map(|j| {
                    let col = (0..n).fold(T::ZERO, |s, i| av[i * len + j].mul_add(xv[i], s));
                    alpha * col + beta * yv[j]
                })
                .collect();
            let inputs =
                |a: Vec<T>| vec![tbuf("A", a), tbuf("x", xv.clone()), tbuf("y", yv.clone())];
            assert!(check(&p, vec![tbuf("o", ov.clone())], inputs(av.clone()), &none).is_ok());
            for i in fault_sites(len) {
                let mut bad = ov.clone();
                bad[i] = flip_high_bit(bad[i]);
                let err = check(&p, vec![tbuf("o", bad)], inputs(av.clone()), &none).unwrap_err();
                assert!(err.contains("gemv"), "len {len} site {i}: {err}");
                // The same sites in the last row of A.
                let mut bad = av.clone();
                bad[(n - 1) * len + i] = flip_high_bit(bad[(n - 1) * len + i]);
                let staged = vec![tbuf("o", ov.clone())];
                let err = check(&p, staged, inputs(bad), &none).unwrap_err();
                assert!(err.contains("gemv"), "len {len} site {i} of A: {err}");
            }
        }
    }

    #[test]
    fn ragged_lengths_pass_clean_and_catch_flips_f32() {
        ragged_lengths_pass_clean_and_catch_flips::<f32>();
    }

    #[test]
    fn ragged_lengths_pass_clean_and_catch_flips_f64() {
        ragged_lengths_pass_clean_and_catch_flips::<f64>();
    }

    #[test]
    fn f32_tolerance_admits_rounding_but_not_high_bit_flips() {
        let n = 257;
        let mut p = Program::new();
        p.vector("x", n).vector("y", n).vector("z", n);
        p.op(Op::Axpy {
            alpha: -0.8,
            x: "x".into(),
            y: "y".into(),
            out: "z".into(),
        });
        let xv: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let yv: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        // Compute in f32 exactly as the module would.
        let zv: Vec<f32> = xv
            .iter()
            .zip(&yv)
            .map(|(a, b)| (-0.8f32).mul_add(*a, *b))
            .collect();
        let b32 = |name: &str, d: Vec<f32>| (name.to_string(), DeviceBuffer::from_vec(name, d, 0));
        let buffers: HashMap<_, _> = [b32("x", xv), b32("y", yv)].into();
        let staged: HashMap<_, _> = [b32("z", zv.clone())].into();
        let scalars = HashMap::new();
        assert!(verify_component::<f32>(&p, &[0], &staged, &buffers, &scalars, &none()).is_ok());
        let mut bad = zv;
        bad[100] = f32::from_bits(bad[100].to_bits() ^ (1 << 27));
        let staged: HashMap<_, _> = [b32("z", bad)].into();
        assert!(verify_component::<f32>(&p, &[0], &staged, &buffers, &scalars, &none()).is_err());
    }

    /// Predictions made ahead from the caller's buffers — as the
    /// executor makes them beside a run — give the same verdict and the
    /// same message as predictions made inline, on clean and corrupted
    /// outputs, for a GEMV large enough to be predicted ahead (384²
    /// elements) and one that is not (16²), and when an input is
    /// missing.
    #[test]
    fn predictions_made_ahead_match_inline_ones() {
        for n in [384, 16] {
            let mut p = Program::new();
            p.matrix("A", n, n)
                .vector("x", n)
                .vector("y", n)
                .vector("q", n);
            p.op(Op::Gemv {
                alpha: 1.5,
                beta: -0.5,
                a: "A".into(),
                transposed: false,
                x: "x".into(),
                y: Some("y".into()),
                out: "q".into(),
            });
            let av: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.013).sin()).collect();
            let xv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
            let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
            let qv: Vec<f64> = (0..n)
                .map(|i| {
                    let row = &av[i * n..(i + 1) * n];
                    1.5 * row.iter().zip(&xv).map(|(a, x)| a * x).sum::<f64>() - 0.5 * yv[i]
                })
                .collect();
            let mut bad = qv.clone();
            bad[n / 2] = flip_high_bit(bad[n / 2]);
            let buffers: HashMap<_, _> = [buf("A", av), buf("x", xv), buf("y", yv)].into();
            let mut partial = buffers.clone();
            partial.remove("x");
            let scalars = HashMap::new();
            for (inputs, out, fails) in [
                (&buffers, &qv, false),
                (&buffers, &bad, true),
                (&partial, &qv, true),
            ] {
                let staged: HashMap<_, _> = [buf("q", out.clone())].into();
                let ahead = predict_ops::<f64>(&p, &[0], inputs);
                let ahead = verify_component::<f64>(&p, &[0], &staged, inputs, &scalars, &ahead);
                let inline = verify_component::<f64>(&p, &[0], &staged, inputs, &scalars, &none());
                assert_eq!(ahead, inline, "n = {n}");
                assert_eq!(ahead.is_err(), fails, "n = {n}: {ahead:?}");
            }
        }
    }
}
