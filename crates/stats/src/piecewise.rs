//! Piecewise log-linear (piecewise-exponential) densities.
//!
//! The Gibbs conditional for an arrival time derived in the paper (its
//! Figure 3) is a density of the form `f(x) ∝ exp(c_i + s_i · x)` on each
//! of a handful of contiguous segments: the `max` terms inside the
//! exponential-service log-likelihood switch on or off as `x` crosses a
//! neighbouring event time, changing the slope of `log f` but never its
//! continuity. This module represents such densities exactly, computes
//! their normalizing constant in log space, and samples them by inverse
//! CDF — segment choice first, then a truncated-exponential draw inside
//! the chosen segment.
//!
//! The representation is deliberately more general than the paper's
//! three-segment case so that degenerate configurations (missing
//! neighbours, coincident breakpoints, half-infinite support) all flow
//! through one well-tested code path.

use crate::error::StatsError;
use crate::logspace::{log_int_exp_linear, log_int_exp_linear_tail, log_sum_exp};
use crate::truncated_exp::TruncatedExp;
use rand::Rng;

/// One segment of a piecewise log-linear density.
///
/// On `[lo, hi)` the unnormalized log-density is `offset + slope · x`.
/// `hi` may be `+inf` provided `slope < 0` (a decaying tail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Left endpoint (finite).
    pub lo: f64,
    /// Right endpoint; `+inf` allowed when `slope < 0`.
    pub hi: f64,
    /// Additive constant of the log-density on this segment.
    pub offset: f64,
    /// Slope of the log-density on this segment.
    pub slope: f64,
}

impl Segment {
    /// Log of the unnormalized mass `∫_lo^hi exp(offset + slope·x) dx`.
    pub fn log_mass(&self) -> f64 {
        if self.hi.is_finite() {
            log_int_exp_linear(self.offset, self.slope, self.lo, self.hi)
        } else {
            log_int_exp_linear_tail(self.offset, self.slope, self.lo)
        }
    }

    /// Width of the segment (may be `+inf`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Appends the segments of a *continuous* density on `[lower, upper]` to
/// `out` (which is **not** cleared): interior breakpoints are clamped into
/// the support, offsets are chosen so the log-density is continuous and
/// anchored at `log f(lower) = 0`.
///
/// Shared by [`PiecewiseExpDensity::continuous_from_slopes`] and
/// [`PiecewiseScratch::rebuild_continuous`] so both construction paths
/// perform bit-identical arithmetic.
fn push_continuous_segments(
    lower: f64,
    upper: f64,
    breaks: &[f64],
    slopes: &[f64],
    out: &mut Vec<Segment>,
) -> Result<(), StatsError> {
    if slopes.len() != breaks.len() + 1 {
        return Err(StatsError::BadParameter {
            what: "slopes.len() must be breaks.len() + 1",
        });
    }
    if !(lower.is_finite()) || lower >= upper {
        return Err(StatsError::BadInterval {
            lo: lower,
            hi: upper,
        });
    }
    if breaks.windows(2).any(|w| w[0] > w[1]) {
        return Err(StatsError::BadParameter {
            what: "breakpoints must be sorted",
        });
    }
    let mut offset = -slopes[0] * lower; // Anchor: log f(lower) = 0.
    let mut lo = lower;
    for (i, &s) in slopes.iter().enumerate() {
        // Clamp the cut into the support; clamping preserves sortedness.
        let hi = if i < breaks.len() {
            let mut c = breaks[i].max(lower);
            if upper.is_finite() {
                c = c.min(upper);
            }
            c
        } else {
            upper
        };
        if hi > lo {
            out.push(Segment {
                lo,
                hi,
                offset,
                slope: s,
            });
        }
        // Continuity at the cut: offset' = offset + (s - s_next)·cut.
        // An empty segment still shifts the anchor so downstream
        // segments stay continuous with the density shape.
        if i < breaks.len() {
            offset += (s - slopes[i + 1]) * hi;
            lo = lo.max(hi);
        }
    }
    Ok(())
}

/// Validates `segments` in place (dropping empty ones, preserving order),
/// fills `log_masses` and the normalized segment probabilities `probs`
/// (both cleared first) and returns the log normalizer.
///
/// The probabilities reuse the exponentials the `log(Σ exp)` reduction
/// computes anyway, so the sampling hot path never has to exponentiate.
///
/// Shared by [`PiecewiseExpDensity::new`] and
/// [`PiecewiseScratch::rebuild_continuous`].
fn finalize_segments(
    segments: &mut Vec<Segment>,
    log_masses: &mut Vec<f64>,
    probs: &mut Vec<f64>,
) -> Result<f64, StatsError> {
    let mut kept = 0usize;
    for i in 0..segments.len() {
        let seg = segments[i];
        if seg.lo.is_nan() || seg.hi.is_nan() || !seg.lo.is_finite() {
            return Err(StatsError::BadInterval {
                lo: seg.lo,
                hi: seg.hi,
            });
        }
        if seg.hi == f64::INFINITY && seg.slope >= 0.0 {
            return Err(StatsError::BadParameter {
                what: "half-infinite segment must have negative slope",
            });
        }
        if seg.hi <= seg.lo {
            continue;
        }
        segments[kept] = seg;
        kept += 1;
    }
    segments.truncate(kept);
    log_masses.clear();
    log_masses.extend(segments.iter().map(Segment::log_mass));
    // log_sum_exp, keeping the intermediate exponentials as the
    // (unnormalized, then normalized) segment probabilities.
    let m = log_masses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    probs.clear();
    if !m.is_finite() {
        return Err(StatsError::EmptyDensity);
    }
    probs.extend(log_masses.iter().map(|&lm| (lm - m).exp()));
    let sum: f64 = probs.iter().sum();
    let log_norm = m + sum.ln();
    if !log_norm.is_finite() {
        return Err(StatsError::EmptyDensity);
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    Ok(log_norm)
}

/// Draws one sample from finalized parts: chooses a segment proportionally
/// to its (precomputed) probability, then inverts the within-segment CDF.
/// Two uniform draws, no exponentials outside the chosen segment's
/// quantile.
fn sample_segments<R: Rng + ?Sized>(segments: &[Segment], probs: &[f64], rng: &mut R) -> f64 {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    let mut chosen = segments.len() - 1;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            chosen = i;
            break;
        }
    }
    let v: f64 = rng.random();
    segment_inv_cdf(&segments[chosen], v)
}

/// Normalized log-density at `x` over finalized parts.
fn log_pdf_segments(segments: &[Segment], log_norm: f64, x: f64) -> f64 {
    for seg in segments {
        if x >= seg.lo && x < seg.hi {
            return seg.offset + seg.slope * x - log_norm;
        }
    }
    f64::NEG_INFINITY
}

/// A normalized piecewise log-linear density.
///
/// # Examples
///
/// ```
/// use qni_stats::piecewise::PiecewiseExpDensity;
/// use qni_stats::rng::rng_from_seed;
///
/// // f(x) ∝ e^{-x} on [0,1), e^{-1} (flat) on [1,2): a continuous density.
/// let d = PiecewiseExpDensity::continuous_from_slopes(0.0, 2.0, &[1.0], &[-1.0, 0.0])
///     .unwrap();
/// let mut rng = rng_from_seed(1);
/// let x = d.sample(&mut rng);
/// assert!((0.0..2.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct PiecewiseExpDensity {
    segments: Vec<Segment>,
    /// Per-segment log unnormalized mass, aligned with `segments`.
    log_masses: Vec<f64>,
    /// Per-segment normalized probability, aligned with `segments`.
    probs: Vec<f64>,
    /// Log normalizing constant (log of the sum of segment masses).
    log_norm: f64,
}

impl PiecewiseExpDensity {
    /// Builds a density from explicit segments.
    ///
    /// Segments with non-positive width or `-inf` mass are dropped. Errors
    /// if no segment carries positive mass, or if any segment is divergent
    /// (`hi = +inf` with `slope >= 0`) or malformed (NaN endpoints).
    pub fn new(segments: Vec<Segment>) -> Result<Self, StatsError> {
        let mut segments = segments;
        let mut log_masses = Vec::with_capacity(segments.len());
        let mut probs = Vec::with_capacity(segments.len());
        let log_norm = finalize_segments(&mut segments, &mut log_masses, &mut probs)?;
        Ok(PiecewiseExpDensity {
            segments,
            log_masses,
            probs,
            log_norm,
        })
    }

    /// Builds a *continuous* density on `[lower, upper]` from interior
    /// breakpoints and per-segment slopes.
    ///
    /// `slopes.len()` must equal `breaks.len() + 1`. Offsets are chosen so
    /// the log-density is continuous across breakpoints, anchored at
    /// `log f(lower) = 0`. Breakpoints outside `(lower, upper)` are clamped
    /// away (their segments become empty and are dropped) — this is what
    /// makes the Gibbs move's degenerate configurations collapse naturally
    /// to fewer segments. `upper` may be `+inf` if the final slope is
    /// negative.
    pub fn continuous_from_slopes(
        lower: f64,
        upper: f64,
        breaks: &[f64],
        slopes: &[f64],
    ) -> Result<Self, StatsError> {
        let mut segments = Vec::with_capacity(slopes.len());
        push_continuous_segments(lower, upper, breaks, slopes, &mut segments)?;
        PiecewiseExpDensity::new(segments)
    }

    /// Returns the segments of the density.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Log normalizing constant of the unnormalized density.
    pub fn log_norm(&self) -> f64 {
        self.log_norm
    }

    /// Probability mass of segment `i`.
    pub fn segment_prob(&self, i: usize) -> f64 {
        (self.log_masses[i] - self.log_norm).exp()
    }

    /// Lower end of the support.
    pub fn support_lo(&self) -> f64 {
        self.segments.first().map_or(f64::NAN, |s| s.lo)
    }

    /// Upper end of the support (`+inf` possible).
    pub fn support_hi(&self) -> f64 {
        self.segments.last().map_or(f64::NAN, |s| s.hi)
    }

    /// Normalized log-density at `x` (`-inf` outside the support).
    pub fn log_pdf(&self, x: f64) -> f64 {
        log_pdf_segments(&self.segments, self.log_norm, x)
    }

    /// CDF at `x`, evaluated by summing full and partial segment masses.
    pub fn cdf(&self, x: f64) -> f64 {
        let mut parts = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            if x >= seg.hi {
                parts.push(seg.log_mass());
            } else if x > seg.lo {
                parts.push(log_int_exp_linear(seg.offset, seg.slope, seg.lo, x));
            }
        }
        (log_sum_exp(&parts) - self.log_norm).exp()
    }

    /// Quantile function for `p ∈ [0, 1)`.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&p));
        let mut acc = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            let w = self.segment_prob(i);
            if acc + w >= p || i + 1 == self.segments.len() {
                let rel = ((p - acc) / w).clamp(0.0, 1.0);
                return segment_inv_cdf(seg, rel);
            }
            acc += w;
        }
        self.support_lo()
    }

    /// Draws one sample: chooses a segment proportionally to its mass, then
    /// inverts the within-segment (truncated-)exponential CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        sample_segments(&self.segments, &self.probs, rng)
    }
}

/// A reusable, allocation-free workspace for building and sampling
/// piecewise log-linear densities.
///
/// The Gibbs hot path builds one short-lived density per move;
/// constructing a [`PiecewiseExpDensity`] there costs several heap
/// allocations per move. `PiecewiseScratch` owns the segment and mass
/// buffers and rebuilds them in place, so steady-state rebuilds are
/// allocation-free while performing **bit-identical arithmetic** to
/// [`PiecewiseExpDensity::continuous_from_slopes`] (both paths share the
/// same internal builder), and [`PiecewiseScratch::sample`] consumes the
/// RNG exactly like [`PiecewiseExpDensity::sample`].
///
/// # Examples
///
/// ```
/// use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch};
/// use qni_stats::rng::rng_from_seed;
///
/// let mut scratch = PiecewiseScratch::new();
/// scratch.rebuild_continuous(0.0, 2.0, &[1.0], &[-1.0, 0.0]).unwrap();
/// let owned = PiecewiseExpDensity::continuous_from_slopes(0.0, 2.0, &[1.0], &[-1.0, 0.0])
///     .unwrap();
/// let (mut a, mut b) = (rng_from_seed(3), rng_from_seed(3));
/// assert_eq!(scratch.sample(&mut a).to_bits(), owned.sample(&mut b).to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PiecewiseScratch {
    segments: Vec<Segment>,
    log_masses: Vec<f64>,
    probs: Vec<f64>,
    log_norm: f64,
}

impl PiecewiseScratch {
    /// Creates an empty workspace (no density built yet).
    pub fn new() -> Self {
        PiecewiseScratch::default()
    }

    /// Grows the buffers to hold densities of up to `segments` segments,
    /// so later rebuilds of that size never allocate.
    pub fn reserve(&mut self, segments: usize) {
        self.segments
            .reserve(segments.saturating_sub(self.segments.len()));
        self.log_masses
            .reserve(segments.saturating_sub(self.log_masses.len()));
        self.probs
            .reserve(segments.saturating_sub(self.probs.len()));
    }

    /// Rebuilds the workspace as the continuous density
    /// [`PiecewiseExpDensity::continuous_from_slopes`] would construct,
    /// reusing the internal buffers. On error the workspace is left empty
    /// (sampling it would panic), never holding a stale density.
    pub fn rebuild_continuous(
        &mut self,
        lower: f64,
        upper: f64,
        breaks: &[f64],
        slopes: &[f64],
    ) -> Result<(), StatsError> {
        self.segments.clear();
        self.log_masses.clear();
        self.probs.clear();
        let build = push_continuous_segments(lower, upper, breaks, slopes, &mut self.segments)
            .and_then(|()| {
                finalize_segments(&mut self.segments, &mut self.log_masses, &mut self.probs)
            });
        match build {
            Ok(log_norm) => {
                self.log_norm = log_norm;
                Ok(())
            }
            Err(e) => {
                self.segments.clear();
                self.log_masses.clear();
                self.probs.clear();
                Err(e)
            }
        }
    }

    /// The segments of the current density (empty before the first
    /// successful rebuild).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Log normalizing constant of the current density.
    pub fn log_norm(&self) -> f64 {
        self.log_norm
    }

    /// Normalized log-density at `x` (`-inf` outside the support).
    pub fn log_pdf(&self, x: f64) -> f64 {
        log_pdf_segments(&self.segments, self.log_norm, x)
    }

    /// Draws one sample from the current density; RNG consumption is
    /// identical to [`PiecewiseExpDensity::sample`].
    ///
    /// # Panics
    ///
    /// Panics if no density has been (successfully) built.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        assert!(
            !self.segments.is_empty(),
            "PiecewiseScratch::sample called before a successful rebuild"
        );
        sample_segments(&self.segments, &self.probs, rng)
    }
}

/// Within-segment quantile: density ∝ `exp(slope·x)` on `[lo, hi)`.
fn segment_inv_cdf(seg: &Segment, p: f64) -> f64 {
    let w = seg.width();
    if seg.hi == f64::INFINITY {
        // Pure exponential tail with rate |slope|.
        return seg.lo + -(-p).ln_1p() / -seg.slope;
    }
    if seg.slope == 0.0 || (seg.slope.abs() * w) < 1e-12 {
        return seg.lo + p * w;
    }
    if seg.slope < 0.0 {
        let t = TruncatedExp::new(-seg.slope, w).expect("validated segment"); // qni-lint: allow(QNI-E002) — segment slope and width were validated when the density was built
        seg.lo + t.inv_cdf(p)
    } else {
        let t = TruncatedExp::new(seg.slope, w).expect("validated segment"); // qni-lint: allow(QNI-E002) — segment slope and width were validated when the density was built
        seg.hi - t.inv_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;
    use crate::rng::rng_from_seed;

    fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let mut acc = f(a) + f(b);
        for i in 1..n {
            acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(a + i as f64 * h);
        }
        acc * h / 3.0
    }

    #[test]
    fn rejects_divergent_and_empty() {
        let div = Segment {
            lo: 0.0,
            hi: f64::INFINITY,
            offset: 0.0,
            slope: 0.5,
        };
        assert!(PiecewiseExpDensity::new(vec![div]).is_err());
        assert!(PiecewiseExpDensity::new(vec![]).is_err());
        let empty = Segment {
            lo: 1.0,
            hi: 1.0,
            offset: 0.0,
            slope: 1.0,
        };
        assert!(PiecewiseExpDensity::new(vec![empty]).is_err());
    }

    #[test]
    fn continuous_builder_is_continuous() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 3.0, &[1.0, 2.0], &[1.0, 0.0, -2.0])
                .unwrap();
        assert_eq!(d.segments().len(), 3);
        // Log-density continuous at the breakpoints.
        for &b in &[1.0f64, 2.0] {
            let eps = 1e-9;
            let l = d.log_pdf(b - eps);
            let r = d.log_pdf(b + eps);
            assert!((l - r).abs() < 1e-6, "discontinuity at {b}: {l} vs {r}");
        }
    }

    #[test]
    fn continuous_builder_drops_empty_segments() {
        // Breakpoint at the lower bound: first segment is empty.
        let d =
            PiecewiseExpDensity::continuous_from_slopes(1.0, 2.0, &[1.0], &[5.0, -1.0]).unwrap();
        assert_eq!(d.segments().len(), 1);
        assert_eq!(d.segments()[0].slope, -1.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(-1.0, 2.0, &[0.0, 1.0], &[3.0, -0.5, -4.0])
                .unwrap();
        let total = simpson(|x| d.log_pdf(x).exp(), -1.0, 2.0 - 1e-9, 6000);
        assert!((total - 1.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn cdf_and_inv_cdf_agree() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 5.0, &[1.5, 3.0], &[-1.0, 2.0, -3.0])
                .unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = d.inv_cdf(p);
            assert!((d.cdf(x) - p).abs() < 1e-8, "p={p}, x={x}");
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 4.0, &[1.0, 2.0], &[2.0, 0.0, -5.0])
                .unwrap();
        let mut rng = rng_from_seed(17);
        let n = 50_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        // One-sample KS against the exact CDF.
        let mut ks: f64 = 0.0;
        for (i, &x) in samples.iter().enumerate() {
            let f = d.cdf(x);
            let emp_hi = (i + 1) as f64 / n as f64;
            let emp_lo = i as f64 / n as f64;
            ks = ks.max((f - emp_lo).abs()).max((f - emp_hi).abs());
        }
        // 99.9% critical value ≈ 1.95/√n ≈ 0.0087.
        assert!(ks < 0.0087, "ks={ks}");
    }

    #[test]
    fn half_infinite_tail_sampling() {
        // f(x) ∝ e^{-2x} on [1, ∞): a shifted exponential.
        let d = PiecewiseExpDensity::new(vec![Segment {
            lo: 1.0,
            hi: f64::INFINITY,
            offset: 0.0,
            slope: -2.0,
        }])
        .unwrap();
        let mut rng = rng_from_seed(9);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let s = Summary::from_slice(&xs).unwrap();
        assert!(s.min >= 1.0);
        assert!((s.mean - 1.5).abs() < 0.01, "mean={}", s.mean);
    }

    #[test]
    fn segment_probabilities_sum_to_one() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 10.0, &[2.0, 7.0], &[0.5, -0.1, -1.0])
                .unwrap();
        let total: f64 = (0..d.segments().len()).map(|i| d.segment_prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_slopes_remain_finite() {
        // Slopes of ±1000 at times around 1800 (webapp scale).
        let d = PiecewiseExpDensity::continuous_from_slopes(
            1800.0,
            1800.5,
            &[1800.2],
            &[1000.0, -1000.0],
        )
        .unwrap();
        assert!(d.log_norm().is_finite());
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((1800.0..1800.5).contains(&x));
            // Mass concentrates at the peak 1800.2.
            assert!((x - 1800.2).abs() < 0.05);
        }
    }

    #[test]
    fn scratch_matches_owned_builder_bitwise() {
        let cases: &[(f64, f64, &[f64], &[f64])] = &[
            (0.0, 3.0, &[1.0, 2.0], &[1.0, 0.0, -2.0]),
            (-1.0, 2.0, &[0.0, 1.0], &[3.0, -0.5, -4.0]),
            (1.0, 2.0, &[1.0], &[5.0, -1.0]), // Empty first segment.
            (0.0, 1.0, &[], &[0.0]),          // Uniform, no breakpoints.
            (1800.0, 1800.5, &[1800.2], &[1000.0, -1000.0]),
        ];
        let mut scratch = PiecewiseScratch::new();
        for &(lo, hi, breaks, slopes) in cases {
            let owned =
                PiecewiseExpDensity::continuous_from_slopes(lo, hi, breaks, slopes).expect("owned");
            scratch
                .rebuild_continuous(lo, hi, breaks, slopes)
                .expect("scratch");
            assert_eq!(scratch.segments(), owned.segments());
            assert_eq!(scratch.log_norm().to_bits(), owned.log_norm().to_bits());
            let mut ra = rng_from_seed(11);
            let mut rb = rng_from_seed(11);
            for _ in 0..50 {
                let a = owned.sample(&mut ra);
                let b = scratch.sample(&mut rb);
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for &x in &[lo + 1e-6, 0.5 * (lo + hi), hi - 1e-6] {
                assert_eq!(owned.log_pdf(x).to_bits(), scratch.log_pdf(x).to_bits());
            }
        }
    }

    #[test]
    fn scratch_is_reusable_and_clears_on_error() {
        let mut scratch = PiecewiseScratch::new();
        scratch
            .rebuild_continuous(0.0, 1.0, &[], &[1.0])
            .expect("first build");
        assert_eq!(scratch.segments().len(), 1);
        // Invalid rebuild: unsorted breakpoints.
        assert!(scratch
            .rebuild_continuous(0.0, 1.0, &[0.8, 0.2], &[1.0, 0.0, -1.0])
            .is_err());
        assert!(scratch.segments().is_empty());
        // Divergent rebuild: infinite support with non-negative slope.
        assert!(scratch
            .rebuild_continuous(0.0, f64::INFINITY, &[], &[0.5])
            .is_err());
        assert!(scratch.segments().is_empty());
        // Recovers after errors.
        scratch
            .rebuild_continuous(2.0, 4.0, &[3.0], &[0.5, -0.5])
            .expect("rebuild after error");
        assert_eq!(scratch.segments().len(), 2);
        let mut rng = rng_from_seed(4);
        let x = scratch.sample(&mut rng);
        assert!((2.0..4.0).contains(&x));
    }

    #[test]
    fn log_pdf_outside_support_is_neg_inf() {
        let d = PiecewiseExpDensity::continuous_from_slopes(0.0, 1.0, &[], &[0.0]).unwrap();
        assert_eq!(d.log_pdf(-0.1), f64::NEG_INFINITY);
        assert_eq!(d.log_pdf(1.1), f64::NEG_INFINITY);
        assert!((d.log_pdf(0.5) - 0.0).abs() < 1e-12); // Uniform on [0,1).
    }
}
