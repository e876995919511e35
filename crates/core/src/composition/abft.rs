//! Algorithm-based fault tolerance (ABFT) checksum guards.
//!
//! Each BLAS routine satisfies a cheap numeric identity relating the
//! checksum of its output to checksums of its inputs — the classic
//! Huang–Abraham construction specialized to the streamed operator set:
//!
//! * `copy`: `Σout = Σx`
//! * `scal`: `Σout = α·Σx`
//! * `axpy`: `Σout = α·Σx + Σy`
//! * `dot`:  the scalar result equals the `f64` recomputation
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

/// Sum and absolute-value sum of a buffer, in `f64`.
fn sums(v: &[f64]) -> (f64, f64) {
    v.iter().fold((0.0, 0.0), |(s, a), &x| (s + x, a + x.abs()))
}

/// Tolerance for an identity over `work` flops at magnitude `scale`.
fn tol<T: Scalar>(work: usize, scale: f64) -> f64 {
    eps::<T>() * 8.0 * (work as f64 + 16.0) * scale.max(1.0)
}

/// Check every op of a component against its checksum identity.
///
/// Operand values are resolved *staged-preferred*: an operand this
/// component wrote is read from the staged scratch buffer (the value
/// the downstream ops actually consumed and the commit would publish),
/// anything else from the caller's buffers, which still hold the
/// pre-component state because writes are staged. `scalars` holds the
/// attempt's DOT results. Returns the first violated identity as a
/// human-readable detail string.
pub(crate) fn verify_component<T: Scalar>(
    program: &Program,
    ops: &[usize],
    staged: &HashMap<String, DeviceBuffer<T>>,
    buffers: &HashMap<String, DeviceBuffer<T>>,
    scalars: &HashMap<String, T>,
) -> Result<(), String> {
    let resolve = |name: &str| -> Option<Vec<f64>> {
        staged
            .get(name)
            .or_else(|| buffers.get(name))
            .map(|b| b.to_host().iter().map(|v| v.to_f64()).collect())
    };
    for &oi in ops {
        let op = &program.ops()[oi];
        check_op::<T>(program, oi, op, &resolve, scalars)?;
    }
    Ok(())
}

fn check_op<T: Scalar>(
    program: &Program,
    oi: usize,
    op: &Op,
    resolve: &dyn Fn(&str) -> Option<Vec<f64>>,
    scalars: &HashMap<String, T>,
) -> Result<(), String> {
    let need = |name: &str| -> Result<Vec<f64>, String> {
        resolve(name).ok_or_else(|| format!("abft: op {oi}: operand `{name}` has no buffer"))
    };
    let verdict = |routine: &str, out: &str, got: f64, want: f64, work: usize, scale: f64| {
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
    };
    match op {
        Op::Copy { x, out } => {
            let (sx, ax) = sums(&need(x)?);
            let (so, _) = sums(&need(out)?);
            verdict("copy", out, so, sx, need(x)?.len(), ax)
        }
        Op::Scal { alpha, x, out } => {
            let xs = need(x)?;
            let (sx, ax) = sums(&xs);
            let (so, _) = sums(&need(out)?);
            verdict("scal", out, so, alpha * sx, xs.len(), alpha.abs() * ax)
        }
        Op::Axpy { alpha, x, y, out } => {
            let xs = need(x)?;
            let (sx, ax) = sums(&xs);
            let (sy, ay) = sums(&need(y)?);
            let (so, _) = sums(&need(out)?);
            verdict(
                "axpy",
                out,
                so,
                alpha * sx + sy,
                xs.len(),
                alpha.abs() * ax + ay,
            )
        }
        Op::Dot { x, y, out } => {
            let xs = need(x)?;
            let ys = need(y)?;
            let got = scalars
                .get(out)
                .map(|v| v.to_f64())
                .ok_or_else(|| format!("abft: op {oi} (dot): no result stored for `{out}`"))?;
            let (want, scale) = xs.iter().zip(&ys).fold((0.0, 0.0), |(s, a), (&xi, &yi)| {
                (xi.mul_add(yi, s), a + (xi * yi).abs())
            });
            verdict("dot", out, got, want, xs.len(), scale)
        }
        Op::Gemv {
            alpha,
            beta,
            a,
            transposed,
            x,
            y,
            out,
        } => {
            let (n, m) = program
                .mat_dims(a)
                .map_err(|e| format!("abft: op {oi} (gemv): {e}"))?;
            let av = need(a)?;
            let xs = need(x)?;
            // Checksum along the dimension the products collapse over:
            // column sums of A pair with x for the plain product, row
            // sums for the transposed one.
            let (mut want, mut scale) = (0.0f64, 0.0f64);
            if *transposed {
                for i in 0..n {
                    let (rs, ra) = sums(&av[i * m..(i + 1) * m]);
                    want += rs * xs[i];
                    scale += ra * xs[i].abs();
                }
            } else {
                for j in 0..m {
                    let (mut cs, mut ca) = (0.0, 0.0);
                    for i in 0..n {
                        cs += av[i * m + j];
                        ca += av[i * m + j].abs();
                    }
                    want += cs * xs[j];
                    scale += ca * xs[j].abs();
                }
            }
            want *= alpha;
            scale *= alpha.abs();
            // The executor zeroes the accumulator when no y is bound.
            if let Some(yn) = y {
                let (sy, ay) = sums(&need(yn)?);
                want += beta * sy;
                scale += beta.abs() * ay;
            }
            let (so, _) = sums(&need(out)?);
            verdict("gemv", out, so, want, n * m, scale)
        }
        Op::Ger {
            alpha,
            a,
            x,
            y,
            out,
        } => {
            let (sa, aa) = sums(&need(a)?);
            let (sx, ax) = sums(&need(x)?);
            let (sy, ay) = sums(&need(y)?);
            let (so, _) = sums(&need(out)?);
            let (n, m) = program
                .mat_dims(a)
                .map_err(|e| format!("abft: op {oi} (ger): {e}"))?;
            verdict(
                "ger",
                out,
                so,
                sa + alpha * sx * sy,
                n * m,
                aa + alpha.abs() * ax * ay,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_ok());

        // Flip the sign bit of one element: a gross corruption the
        // checksum must catch.
        let mut bad = zv;
        bad[7] = -bad[7] - 1.0;
        let staged: HashMap<_, _> = [buf("z", bad)].into();
        let err = verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).unwrap_err();
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
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_ok());
        scalars.insert("r".to_string(), r + 0.5);
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_err());
        scalars.clear();
        let err = verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).unwrap_err();
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
                verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_ok(),
                "transposed={transposed}"
            );
            let mut bad = ov;
            bad[0] += 1e-3;
            let staged: HashMap<_, _> = [buf("o", bad)].into();
            assert!(
                verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_err(),
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
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_ok());
        // Exponent-bit flip on one element.
        let mut bad = bv;
        bad[3] *= 2.0;
        bad[3] += 0.7;
        let staged: HashMap<_, _> = [buf("B", bad)].into();
        assert!(verify_component::<f64>(&p, &[0], &staged, &buffers, &scalars).is_err());
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
        assert!(verify_component::<f32>(&p, &[0], &staged, &buffers, &scalars).is_ok());
        let mut bad = zv;
        bad[100] = f32::from_bits(bad[100].to_bits() ^ (1 << 27));
        let staged: HashMap<_, _> = [b32("z", bad)].into();
        assert!(verify_component::<f32>(&p, &[0], &staged, &buffers, &scalars).is_err());
    }
}
