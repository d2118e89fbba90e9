//! The integer index pipeline: one place that turns an addressed access —
//! a floor-divided, diagonal or data-dependent load, or a reduction's
//! scatter target — into flat element offsets.
//!
//! An [`IndexPlan`] is resolved once per row: the offset contributed by
//! every chunk-invariant dimension is folded into `base`, and what varies
//! along the chunk axis is kept as up to [`MAX_TERMS`] affine terms and up
//! to [`MAX_TERMS`] register terms, in inline arrays (no allocation).
//! Per chunk, [`IndexPlan::fill_offsets`] produces the lanes' offsets as
//! `i32`s with a few straight-line passes:
//!
//! - an affine term `((q·x + o) div m − org)·stride` is a **staircase**:
//!   an arithmetic shift per lane when `m` is a power of two (1 included),
//!   else one division at the chunk's first lane and a carried remainder
//!   — never a division per lane;
//! - a register term `(clamp(index_convert(v)) − org)·stride` goes through
//!   [`crate::simd::index_from_f32`].
//!
//! The same plan also defines the reference semantics, lane by lane, in
//! [`IndexPlan::offset_at`] (`div_euclid`, the op table's
//! `polymage_ir::index_convert`, `clamp`):
//! the scalar walk every access took before the pipeline existed. It is
//! what runs at [`SimdLevel::Scalar`], and whenever `fill_offsets`
//! declines.
//!
//! # Why the `i32` offsets are exact
//!
//! `fill_offsets` accumulates with wrapping `i32` arithmetic, so each lane
//! holds its true offset modulo 2³². Before any register term is
//! evaluated the range of the true offsets is bounded from the plan alone:
//! a staircase is monotone, so its extremes are its first and last lane;
//! a register term is clamped, so it contributes between `0` and
//! `(size − 1)·stride`. When that range lies inside `[0, data_len)` and
//! below `i32::MAX`, the wrapped value *is* the true offset. Otherwise
//! `fill_offsets` returns `false` and the caller takes the scalar walk,
//! which indexes with the `i64` and panics exactly where it always did.

use crate::eval::CHUNK;
use crate::simd::{self, Lanes, SimdLevel};
use crate::RegId;

/// Inline capacity of an `IndexPlan`, per kind of term: how many
/// dimensions of one access may vary along the chunk axis, and how many
/// may be data-dependent (a reduction's target dimensions all are).
/// Compilers must reject accesses beyond it before they run.
pub const MAX_TERMS: usize = 4;

/// Largest magnitude at which every integer is an exact `f32`.
const F32_EXACT: u64 = 1 << 24;

/// A buffer dimension indexed by `(q·x + o) div m` along the chunk axis
/// `x`; contributes `((q·x + o) div m − org)·stride`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AffTerm {
    /// Coefficient (non-zero).
    pub q: i64,
    /// Offset.
    pub o: i64,
    /// Floor divisor.
    pub m: i64,
    /// Element stride of the dimension.
    pub stride: i64,
    /// Origin of the dimension.
    pub org: i64,
}

impl AffTerm {
    /// This term's offset at chunk-axis coordinate `x` (reference form).
    #[inline]
    fn at(&self, x: i64) -> i64 {
        ((self.q * x + self.o).div_euclid(self.m) - self.org) * self.stride
    }

    /// Adds the term's offsets for lanes `x0, x0 + 1, …` into `off` and
    /// returns the first and last lane's (unwrapped) contribution — the
    /// term's extremes, since it is monotone in `x`.
    fn staircase(&self, x0: i64, off: &mut [i32]) -> (i64, i64) {
        let AffTerm {
            q,
            o,
            m,
            stride,
            org,
        } = *self;
        let len = off.len() as i64;
        let (n0, nl) = (q * x0 + o, q * (x0 + len - 1) + o);
        // A power-of-two divisor (1 included) floors with an arithmetic
        // shift: every lane is independent and 32 bits wide, so the loop
        // vectorizes. The numerators are monotone in the lane, hence all
        // within `i32` when the first and last are; the remaining `i32`
        // arithmetic wraps, like the accumulation it feeds.
        if (m as u64).is_power_of_two() && i32::try_from(n0).is_ok() && i32::try_from(nl).is_ok() {
            let k = m.trailing_zeros();
            let (n, q32, org32, stride32) = (n0 as i32, q as i32, org as i32, stride as i32);
            for (i, v) in off.iter_mut().enumerate() {
                let quo = n.wrapping_add(q32.wrapping_mul(i as i32)) >> k;
                *v = v.wrapping_add(quo.wrapping_sub(org32).wrapping_mul(stride32));
            }
            return (((n0 >> k) - org) * stride, ((nl >> k) - org) * stride);
        }
        // (q·x + o) = quo·m + rem with 0 ≤ rem < m; one step of x adds
        // q = qd·m + qr, i.e. qd to the quotient plus a carry whenever the
        // remainder passes m.
        let (qd, qr) = (q.div_euclid(m), q.rem_euclid(m));
        let first = (n0.div_euclid(m) - org) * stride;
        let mut rem = n0.rem_euclid(m);
        let step = qd * stride;
        let mut cur = first;
        let (head, tail) = off.split_first_mut().expect("a chunk has a lane");
        *head = head.wrapping_add(cur as i32);
        for v in tail {
            rem += qr;
            let carry = i64::from(rem >= m);
            rem -= carry * m;
            cur += step + carry * stride;
            *v = v.wrapping_add(cur as i32);
        }
        (first, cur)
    }
}

/// A buffer dimension indexed by a register's lane values, rounded half
/// away from zero and clamped into `[org, org + size − 1]`; contributes
/// `(index − org)·stride`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegTerm {
    /// Origin of the dimension.
    pub org: i64,
    /// Extent of the dimension.
    pub size: i64,
    /// Element stride of the dimension.
    pub stride: i64,
    /// The register holding the index values.
    pub reg: RegId,
}

impl RegTerm {
    /// This term's offset for index value `v` (reference form).
    #[inline]
    fn at(&self, v: f32) -> i64 {
        let idx = polymage_ir::index_convert(v).clamp(self.org, self.org + self.size - 1);
        (idx - self.org) * self.stride
    }
}

/// The row-resolved addressing of one access. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct IndexPlan {
    base: i64,
    aff: [AffTerm; MAX_TERMS],
    naff: usize,
    reg: [RegTerm; MAX_TERMS],
    nreg: usize,
    /// Every term meets the pipeline's static preconditions: a positive
    /// floor divisor, and clamp bounds that are non-empty and exact in
    /// both `f32` and `i32`.
    exact: bool,
}

impl IndexPlan {
    /// A plan with no varying term yet: every lane addresses `base`.
    pub(crate) fn new(base: i64) -> IndexPlan {
        IndexPlan {
            base,
            aff: [AffTerm::default(); MAX_TERMS],
            naff: 0,
            reg: [RegTerm {
                org: 0,
                size: 0,
                stride: 0,
                reg: RegId(0),
            }; MAX_TERMS],
            nreg: 0,
            exact: true,
        }
    }

    /// Adds an affine chunk-axis term.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_TERMS`] affine terms.
    pub(crate) fn push_aff(&mut self, t: AffTerm) {
        assert!(
            self.naff < MAX_TERMS,
            "an access varies along the chunk axis in more than {MAX_TERMS} affine dimensions"
        );
        self.exact &= t.m >= 1;
        self.aff[self.naff] = t;
        self.naff += 1;
    }

    /// Adds a register-indexed term.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_TERMS`] register terms.
    pub(crate) fn push_reg(&mut self, t: RegTerm) {
        assert!(
            self.nreg < MAX_TERMS,
            "an access has more than {MAX_TERMS} data-dependent dimensions"
        );
        let hi = t.org.saturating_add(t.size).saturating_sub(1);
        self.exact &=
            t.size >= 1 && t.org.unsigned_abs() <= F32_EXACT && hi.unsigned_abs() <= F32_EXACT;
        self.reg[self.nreg] = t;
        self.nreg += 1;
    }

    fn affs(&self) -> &[AffTerm] {
        &self.aff[..self.naff]
    }

    fn regs(&self) -> &[RegTerm] {
        &self.reg[..self.nreg]
    }

    /// Whether any dimension is data-dependent.
    pub(crate) fn has_reg(&self) -> bool {
        self.nreg > 0
    }

    /// Computes the offsets of lanes `0..len` (chunk-axis coordinates
    /// `x0..x0 + len`) into `off[..len]`, reading register terms from
    /// `regs`. Returns `false` — with `off` unspecified — at
    /// [`SimdLevel::Scalar`], or when the offsets cannot be proven to lie
    /// in `[0, data_len)` and below `i32::MAX` (module docs); the caller
    /// then addresses each lane through [`IndexPlan::offset_at`].
    pub(crate) fn fill_offsets(
        &self,
        level: SimdLevel,
        regs: &[Lanes],
        x0: i64,
        len: usize,
        data_len: usize,
        off: &mut [i32; CHUNK],
    ) -> bool {
        if level == SimdLevel::Scalar || !self.exact || len == 0 {
            return false;
        }
        off[..len].fill(self.base as i32);
        let (mut lo, mut hi) = (self.base as i128, self.base as i128);
        for t in self.affs() {
            let (first, last) = t.staircase(x0, &mut off[..len]);
            lo += first.min(last) as i128;
            hi += first.max(last) as i128;
        }
        for t in self.regs() {
            let span = (t.size - 1) as i128 * t.stride as i128;
            lo += span.min(0);
            hi += span.max(0);
        }
        if lo < 0 || hi >= data_len as i128 || hi > i32::MAX as i128 {
            return false;
        }
        for t in self.regs() {
            simd::index_from_f32(
                level,
                off,
                &regs[t.reg.0 as usize],
                // `exact` bounds both within ±2²⁴.
                t.org as i32,
                (t.org + t.size - 1) as i32,
                t.stride as i32,
                len,
            );
        }
        true
    }

    /// The flat offset of one lane, in reference form: `lane` selects the
    /// register terms' values and `x` is the lane's chunk-axis coordinate.
    ///
    /// # Panics
    ///
    /// Panics on a zero floor divisor or a zero-extent register dimension,
    /// as the arithmetic it spells out does.
    #[inline]
    pub(crate) fn offset_at(&self, regs: &[Lanes], x: i64, lane: usize) -> i64 {
        let aff: i64 = self.affs().iter().map(|t| t.at(x)).sum();
        let reg: i64 = self
            .regs()
            .iter()
            .map(|t| t.at(regs[t.reg.0 as usize][lane]))
            .sum();
        self.base + aff + reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        simd::available_levels()
            .into_iter()
            .filter(|&l| l != SimdLevel::Scalar)
            .collect()
    }

    fn one_aff(base: i64, t: AffTerm) -> IndexPlan {
        let mut p = IndexPlan::new(base);
        p.push_aff(t);
        p
    }

    fn one_reg(base: i64, t: RegTerm) -> (IndexPlan, Vec<Lanes>) {
        let mut p = IndexPlan::new(base);
        p.push_reg(t);
        (p, vec![Lanes::zeroed()])
    }

    /// The staircase reproduces per-lane floor division for every sign and
    /// magnitude of `q`, every small `m`, negative numerators, chunks that
    /// start mid-step, and every chunk length.
    #[test]
    fn staircase_matches_div_euclid() {
        for q in [-3i64, -2, -1, 1, 2, 3] {
            for m in 1..=9i64 {
                for (o, org, stride) in [(0i64, -40i64, 1i64), (-17, -60, 3), (5, -50, -2)] {
                    let t = AffTerm {
                        q,
                        o,
                        m,
                        stride,
                        org,
                    };
                    for x0 in [-37i64, -1, 0, 4, 13] {
                        for len in 1..=CHUNK {
                            let mut off = [7i32; CHUNK];
                            let (first, last) = t.staircase(x0, &mut off[..len]);
                            for (i, &got) in off[..len].iter().enumerate() {
                                let x = x0 + i as i64;
                                let want = 7 + ((q * x + o).div_euclid(m) - org) * stride;
                                assert_eq!(got as i64, want, "q {q} m {m} o {o} x {x}");
                            }
                            assert_eq!(first, off[0] as i64 - 7);
                            assert_eq!(last, off[len - 1] as i64 - 7);
                            assert_eq!(off[len..], [7i32; CHUNK][len..], "wrote past len");
                        }
                    }
                }
            }
        }
    }

    /// The proof admits a plan exactly when every lane lands in the data.
    #[test]
    fn range_proof_bounds_affine_terms() {
        // x/2 over x in [4, 4+len): indices 2 ..= (3+len)/2
        let p = one_aff(
            0,
            AffTerm {
                q: 1,
                o: 0,
                m: 2,
                stride: 1,
                org: 0,
            },
        );
        let mut off = [0i32; CHUNK];
        for lvl in levels() {
            assert!(p.fill_offsets(lvl, &[], 4, 8, 6, &mut off));
            assert_eq!(off[..8], [2, 2, 3, 3, 4, 4, 5, 5]);
            assert!(
                !p.fill_offsets(lvl, &[], 4, 8, 5, &mut off),
                "last lane is one past the data"
            );
            assert!(
                !p.fill_offsets(lvl, &[], -2, 8, 6, &mut off),
                "first lane is negative"
            );
        }
        assert!(
            !p.fill_offsets(SimdLevel::Scalar, &[], 4, 8, 6, &mut off),
            "the scalar level bypasses the pipeline"
        );
    }

    /// A register term is bounded by its clamp, whatever the lanes hold,
    /// and a plan whose range passes `i32::MAX` is refused even when the
    /// data is (hypothetically) that large.
    #[test]
    fn range_proof_bounds_register_terms() {
        let t = RegTerm {
            org: -2,
            size: 5,
            stride: 3,
            reg: RegId(0),
        };
        let mut off = [0i32; CHUNK];
        for lvl in levels() {
            let (p, mut regs) = one_reg(1, t);
            regs[0].0[..4].copy_from_slice(&[-9.0, -0.5, 0.4, 1e9]);
            assert!(p.fill_offsets(lvl, &regs, 0, 4, 14, &mut off));
            assert_eq!(off[..4], [1, 4, 7, 13]);
            assert!(!p.fill_offsets(lvl, &regs, 0, 4, 13, &mut off));
            // negative stride: the range extends below base
            let (p, regs) = one_reg(11, RegTerm { stride: -3, ..t });
            assert!(!p.fill_offsets(lvl, &regs, 0, 4, 100, &mut off));
            let (p, regs) = one_reg(12, RegTerm { stride: -3, ..t });
            assert!(p.fill_offsets(lvl, &regs, 0, 4, 13, &mut off));
            assert_eq!(off[..4], [6; 4], "index 0 is two cells above org");

            let (p, regs) = one_reg(
                0,
                RegTerm {
                    org: 0,
                    size: 3,
                    stride: 1 << 30,
                    reg: RegId(0),
                },
            );
            assert!(!p.fill_offsets(lvl, &regs, 0, 4, usize::MAX, &mut off));
            let (p, regs) = one_reg(i32::MAX as i64, RegTerm { org: 0, ..t });
            assert!(!p.fill_offsets(lvl, &regs, 0, 4, usize::MAX, &mut off));
        }
    }

    /// Terms the vector bodies cannot represent exactly send the whole
    /// plan to the scalar walk.
    #[test]
    fn inexact_terms_are_refused() {
        let mut off = [0i32; CHUNK];
        for lvl in levels() {
            for t in [
                RegTerm {
                    org: 0,
                    size: 0,
                    stride: 1,
                    reg: RegId(0),
                },
                RegTerm {
                    org: (1 << 24) + 1,
                    size: 2,
                    stride: 0,
                    reg: RegId(0),
                },
                RegTerm {
                    org: 0,
                    size: (1 << 24) + 2,
                    stride: 0,
                    reg: RegId(0),
                },
            ] {
                let (p, regs) = one_reg(0, t);
                assert!(!p.fill_offsets(lvl, &regs, 0, 4, 1 << 30, &mut off));
            }
            let p = one_aff(
                0,
                AffTerm {
                    q: 1,
                    o: 0,
                    m: 0,
                    stride: 1,
                    org: 0,
                },
            );
            assert!(!p.fill_offsets(lvl, &[], 0, 4, 1 << 30, &mut off));
        }
    }

    /// Wrapping accumulation: partial sums may leave `i32` as long as the
    /// proven total does not.
    #[test]
    fn partial_sums_may_wrap() {
        let mut p = IndexPlan::new(-(1i64 << 32));
        p.push_reg(RegTerm {
            org: 4096,
            size: 1,
            stride: 7,
            reg: RegId(0),
        });
        p.push_aff(AffTerm {
            q: 1,
            o: 0,
            m: 1,
            stride: 1 << 20,
            org: 0,
        });
        let regs = vec![Lanes::zeroed()];
        let mut off = [0i32; CHUNK];
        for lvl in levels() {
            assert!(p.fill_offsets(lvl, &regs, 4096, 1, 1, &mut off));
            assert_eq!(off[0], 0);
            assert_eq!(p.offset_at(&regs, 4096, 0), 0);
        }
    }
}
