//! Runtime-dispatched `std::arch` SIMD support for the lane kernel and the
//! crosstalk hub.
//!
//! The lane kernel ([`crate::kernel::step_lanes`]) runs one loop on every
//! build, replay caches included; this module only supplies the
//! intrinsics for its block-wide helpers — the all-zero test of a
//! [`crate::kernel::LANE_CHUNK`]-wide voltage block and the relax
//! temperature update — plus the crosstalk hub's axpy, stencil, blend and
//! rise passes. Eight f64 lanes span two AVX2 registers on x86_64 and four
//! NEON registers on aarch64. Every helper has a scalar arm, and the vector
//! arms are gated twice — at compile time behind the `simd` cargo feature,
//! and at run time behind a one-time CPU detection — so a binary built with
//! the feature still runs (and produces bit-identical results through the
//! scalar arms) on hardware without the ISA.
//!
//! The vector arms are deliberately restricted to operations whose IEEE-754
//! semantics match the scalar arms bit-for-bit: adds, multiplies without
//! FMA contraction, min/max with the scalar `f64::max` NaN behaviour, and
//! compares. Transcendental calls stay scalar-per-lane in the kernel
//! itself, which is what keeps the scalar↔SIMD bit-identity provable by
//! proptest rather than merely plausible.
//!
//! Setting the environment variable `NEUROHAMMER_SIMD=0` disables detection
//! (useful for A/B benchmarking one binary against itself), and
//! [`force_scalar`] does the same per process at run time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::kernel::LANE_CHUNK;

/// The instruction set the block-wide helpers vectorize with.
///
/// `Scalar` is always available; the vector variants are only ever
/// *returned* by [`detected`] on hardware that supports them, and kernel
/// entry points sanitise any explicitly requested level against
/// [`detected`] so an impossible request degrades to `Scalar` instead of
/// faulting. Every level gives bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar arms.
    Scalar,
    /// 4-wide f64 AVX2 on x86_64.
    Avx2,
    /// 2-wide f64 NEON on aarch64.
    Neon,
}

impl SimdLevel {
    /// Stable lower-case label for benchmark/report JSON.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// The SIMD level this process detected once at first use.
///
/// Returns [`SimdLevel::Scalar`] when the crate was built without the
/// `simd` feature, when the CPU lacks the ISA, or when the
/// `NEUROHAMMER_SIMD=0` environment kill switch is set.
pub fn detected() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if std::env::var("NEUROHAMMER_SIMD").is_ok_and(|v| v == "0") {
            return SimdLevel::Scalar;
        }
        detect_isa()
    })
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect_isa() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
fn detect_isa() -> SimdLevel {
    if std::arch::is_aarch64_feature_detected!("neon") {
        SimdLevel::Neon
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn detect_isa() -> SimdLevel {
    SimdLevel::Scalar
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces every subsequent kernel call in this process onto the scalar
/// arms (or releases the override again with `false`).
///
/// This is the benchmark harness's lever for measuring the SIMD speedup as
/// a ratio *within one binary*; it does not affect [`detected`].
pub fn force_scalar(enabled: bool) {
    FORCE_SCALAR.store(enabled, Ordering::Relaxed);
}

/// The level kernel entry points actually use: [`detected`], unless
/// [`force_scalar`] is in effect.
pub fn active() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

/// Sanitises a requested level against the hardware: anything other than
/// what [`detected`] reported degrades to [`SimdLevel::Scalar`] so an
/// explicit `step_lanes_with(.., SimdLevel::Avx2)` on a non-AVX2 machine
/// cannot execute illegal instructions.
#[inline]
pub fn sanitize(level: SimdLevel) -> SimdLevel {
    if level == detected() {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// Whether one [`LANE_CHUNK`]-wide voltage chunk is exactly all-zero — the
/// all-idle fast-path test of the kernel, `v == 0.0` per lane (NaN compares
/// unequal, exactly like the scalar `iter().all(|&v| v == 0.0)`).
#[inline]
pub fn chunk_all_zero(level: SimdLevel, chunk: &[f64; LANE_CHUNK]) -> bool {
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { avx2::chunk_all_zero(chunk) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe { neon::chunk_all_zero(chunk) },
        _ => chunk.iter().all(|&v| v == 0.0),
    }
}

/// The relax-phase temperature update of one [`LANE_CHUNK`]-wide block:
/// `T[i] = min(ambient + max(crosstalk[i], 0), max_temperature)`, which is
/// bit-identical to `thermal::filament_temperature(params, 0.0, x)` (the
/// zero self-heating term contributes an exact `+0.0`, and the lower clamp
/// bound can never bind because the crosstalk term is non-negative).
#[inline]
pub fn relax_chunk_temperature(
    level: SimdLevel,
    ambient: f64,
    max_temperature: f64,
    crosstalk: &[f64],
    temperature: &mut [f64],
) {
    debug_assert_eq!(crosstalk.len(), LANE_CHUNK);
    debug_assert_eq!(temperature.len(), LANE_CHUNK);
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe {
            avx2::relax_chunk_temperature(ambient, max_temperature, crosstalk, temperature)
        },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe {
            neon::relax_chunk_temperature(ambient, max_temperature, crosstalk, temperature)
        },
        _ => {
            for (slot, &x) in temperature.iter_mut().zip(crosstalk.iter()) {
                *slot = (ambient + x.max(0.0)).min(max_temperature);
            }
        }
    }
}

/// Elementwise `dst[i] += alpha * src[i]` over arbitrary-length slices —
/// the strided-axpy inner loop of the crosstalk hub. Multiply-then-add
/// without FMA contraction on every tier, so the vector arms round exactly
/// like the scalar loop and the accumulated sums are bit-identical.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(level: SimdLevel, alpha: f64, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "axpy length mismatch");
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { avx2::axpy(alpha, src, dst) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe { neon::axpy(alpha, src, dst) },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }
}

/// Fused shifted-row accumulation `dst[j] += Σ_k alpha_k * src[j - c_k]`
/// for a small set of `(c_k, alpha_k)` shifts — one destination pass over a
/// whole stencil row instead of one axpy pass per shift. Shifted reads that
/// fall outside `src` are skipped (the boundary clip of a convolution).
/// Per destination element the terms are added in the order the `shifts`
/// slice lists them, identically on every tier, so fusing is bit-identical
/// to applying the shifts as separate clipped axpy passes in that order.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn stencil_accumulate(level: SimdLevel, shifts: &[(isize, f64)], src: &[f64], dst: &mut [f64]) {
    let to = dst.len();
    stencil_accumulate_range(level, shifts, src, dst, 0, to)
}

/// [`stencil_accumulate`] restricted to destination columns `from..to` —
/// the caller's way of skipping columns whose every shifted read is known
/// to be `0.0` (adding those `α · 0.0` terms would be bit-neutral, so the
/// clip never changes a destination's bits).
///
/// # Panics
///
/// Panics if the slices differ in length or the range is out of bounds.
#[inline]
pub fn stencil_accumulate_range(
    level: SimdLevel,
    shifts: &[(isize, f64)],
    src: &[f64],
    dst: &mut [f64],
    from: usize,
    to: usize,
) {
    assert_eq!(src.len(), dst.len(), "stencil length mismatch");
    assert!(from <= to && to <= dst.len(), "stencil range out of bounds");
    let cols = dst.len() as isize;
    let vector = match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => true,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => true,
        _ => false,
    };
    if !vector {
        // Scalar tier: one clipped axpy pass per shift, in shift order —
        // simple windows the autovectorizer handles on its own. Per
        // destination element this adds the same terms in the same order
        // as the fused interior below.
        for &(c, a) in shifts {
            let src_lo = (from as isize - c).clamp(0, cols);
            let src_hi = (to as isize - c).clamp(src_lo, cols);
            let width = (src_hi - src_lo) as usize;
            if width == 0 {
                // An empty window can still put `src_lo + c` outside `dst`
                // (e.g. a +2 shift on a one-column row) — nothing to add.
                continue;
            }
            let window = &src[src_lo as usize..src_lo as usize + width];
            let dst_off = (src_lo + c) as usize;
            for (d, &s) in dst[dst_off..dst_off + width].iter_mut().zip(window) {
                *d += a * s;
            }
        }
        return;
    }
    // Interior columns of `from..to` where every shifted read stays in
    // bounds.
    let (mut lo, mut hi) = (from as isize, to as isize);
    for &(c, _) in shifts {
        lo = lo.max(c);
        hi = hi.min(cols + c);
    }
    let lo = lo.clamp(from as isize, to as isize) as usize;
    let hi = hi.clamp(lo as isize, to as isize) as usize;
    // Boundary columns: per-element with clipped reads, same term order.
    for j in (from..lo).chain(hi..to) {
        for &(c, a) in shifts {
            let s = j as isize - c;
            if (0..cols).contains(&s) {
                dst[j] += a * src[s as usize];
            }
        }
    }
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { avx2::stencil_interior(shifts, src, dst, lo, hi) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe { neon::stencil_interior(shifts, src, dst, lo, hi) },
        _ => unreachable!("vector flag implies a vector level"),
    }
}

/// Elementwise first-order blend `acc[i] = previous[i] +
/// (acc[i] - previous[i]) * blend` — the hub's exponential approach to the
/// accumulated target. Identical operation order on every tier.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn blend_into(level: SimdLevel, blend: f64, previous: &[f64], acc: &mut [f64]) {
    assert_eq!(previous.len(), acc.len(), "blend length mismatch");
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { avx2::blend_into(blend, previous, acc) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe { neon::blend_into(blend, previous, acc) },
        _ => {
            for (a, &p) in acc.iter_mut().zip(previous) {
                *a = p + (*a - p) * blend;
            }
        }
    }
}

/// Elementwise clamped self-heating rise `rise[i] = max(temperatures[i] -
/// ambient - previous[i], strictly-positive-else-0.0)`: the scalar form is
/// `if r > 0.0 { r } else { 0.0 }`, so NaN and `-0.0` both produce an exact
/// `+0.0` — the vector arms use a greater-than mask with the same
/// semantics.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn positive_rise(
    level: SimdLevel,
    ambient: f64,
    temperatures: &[f64],
    previous: &[f64],
    rise: &mut [f64],
) {
    assert_eq!(temperatures.len(), rise.len(), "rise length mismatch");
    assert_eq!(previous.len(), rise.len(), "rise length mismatch");
    match level {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { avx2::positive_rise(ambient, temperatures, previous, rise) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        SimdLevel::Neon => unsafe { neon::positive_rise(ambient, temperatures, previous, rise) },
        _ => {
            for (slot, (&t, &p)) in rise.iter_mut().zip(temperatures.iter().zip(previous)) {
                let r = t - ambient - p;
                *slot = if r > 0.0 { r } else { 0.0 };
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::LANE_CHUNK;
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's [`super::detected`] gate).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chunk_all_zero(chunk: &[f64; LANE_CHUNK]) -> bool {
        let zero = _mm256_setzero_pd();
        let lo = _mm256_loadu_pd(chunk.as_ptr());
        let hi = _mm256_loadu_pd(chunk.as_ptr().add(4));
        // EQ_OQ: NaN lanes compare false, exactly like scalar `v == 0.0`.
        let eq_lo = _mm256_cmp_pd::<_CMP_EQ_OQ>(lo, zero);
        let eq_hi = _mm256_cmp_pd::<_CMP_EQ_OQ>(hi, zero);
        _mm256_movemask_pd(eq_lo) == 0b1111 && _mm256_movemask_pd(eq_hi) == 0b1111
    }

    /// # Safety
    /// Requires AVX2; slices must hold [`LANE_CHUNK`] lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relax_chunk_temperature(
        ambient: f64,
        max_temperature: f64,
        crosstalk: &[f64],
        temperature: &mut [f64],
    ) {
        let amb = _mm256_set1_pd(ambient);
        let tmax = _mm256_set1_pd(max_temperature);
        let zero = _mm256_setzero_pd();
        for half in 0..2 {
            let x = _mm256_loadu_pd(crosstalk.as_ptr().add(4 * half));
            // maxpd returns the second operand when the first is NaN,
            // matching Rust's `f64::NAN.max(0.0) == 0.0`.
            let rise = _mm256_max_pd(x, zero);
            let t = _mm256_min_pd(_mm256_add_pd(amb, rise), tmax);
            _mm256_storeu_pd(temperature.as_mut_ptr().add(4 * half), t);
        }
    }

    /// # Safety
    /// Requires AVX2; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f64, src: &[f64], dst: &mut [f64]) {
        let a = _mm256_set1_pd(alpha);
        let mut i = 0;
        // Separate mul + add (no FMA): rounds exactly like `d + alpha * s`.
        while i + 4 <= dst.len() {
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let sum = _mm256_add_pd(d, _mm256_mul_pd(a, s));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), sum);
            i += 4;
        }
        for (d, &s) in dst[i..].iter_mut().zip(&src[i..]) {
            *d += alpha * s;
        }
    }

    /// # Safety
    /// Requires AVX2; the caller guarantees every shifted read
    /// `j - c` for `j` in `lo..hi` stays inside `src`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stencil_interior(
        shifts: &[(isize, f64)],
        src: &[f64],
        dst: &mut [f64],
        lo: usize,
        hi: usize,
    ) {
        // Broadcast each coefficient once, outside the column loop.
        let mut coeff = [(0isize, _mm256_setzero_pd()); 8];
        let terms = shifts.len().min(coeff.len());
        for (slot, &(c, a)) in coeff.iter_mut().zip(shifts) {
            *slot = (c, _mm256_set1_pd(a));
        }
        let mut j = lo;
        if terms == shifts.len() {
            while j + 4 <= hi {
                let mut d = _mm256_loadu_pd(dst.as_ptr().add(j));
                for &(c, a) in &coeff[..terms] {
                    let s = _mm256_loadu_pd(src.as_ptr().add((j as isize - c) as usize));
                    // Separate mul + add per term keeps the scalar rounding.
                    d = _mm256_add_pd(d, _mm256_mul_pd(a, s));
                }
                _mm256_storeu_pd(dst.as_mut_ptr().add(j), d);
                j += 4;
            }
        } else {
            // More terms than the broadcast buffer holds: read them back
            // per column vector (same operation order, just slower).
            while j + 4 <= hi {
                let mut d = _mm256_loadu_pd(dst.as_ptr().add(j));
                for &(c, a) in shifts {
                    let s = _mm256_loadu_pd(src.as_ptr().add((j as isize - c) as usize));
                    d = _mm256_add_pd(d, _mm256_mul_pd(_mm256_set1_pd(a), s));
                }
                _mm256_storeu_pd(dst.as_mut_ptr().add(j), d);
                j += 4;
            }
        }
        for j in j..hi {
            let mut acc = dst[j];
            for &(c, a) in shifts {
                acc += a * src[(j as isize - c) as usize];
            }
            dst[j] = acc;
        }
    }

    /// # Safety
    /// Requires AVX2; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blend_into(blend: f64, previous: &[f64], acc: &mut [f64]) {
        let b = _mm256_set1_pd(blend);
        let mut i = 0;
        while i + 4 <= acc.len() {
            let p = _mm256_loadu_pd(previous.as_ptr().add(i));
            let a = _mm256_loadu_pd(acc.as_ptr().add(i));
            let out = _mm256_add_pd(p, _mm256_mul_pd(_mm256_sub_pd(a, p), b));
            _mm256_storeu_pd(acc.as_mut_ptr().add(i), out);
            i += 4;
        }
        for (a, &p) in acc[i..].iter_mut().zip(&previous[i..]) {
            *a = p + (*a - p) * blend;
        }
    }

    /// # Safety
    /// Requires AVX2; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn positive_rise(
        ambient: f64,
        temperatures: &[f64],
        previous: &[f64],
        rise: &mut [f64],
    ) {
        let amb = _mm256_set1_pd(ambient);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= rise.len() {
            let t = _mm256_loadu_pd(temperatures.as_ptr().add(i));
            let p = _mm256_loadu_pd(previous.as_ptr().add(i));
            let r = _mm256_sub_pd(_mm256_sub_pd(t, amb), p);
            // GT_OQ: NaN compares false, so NaN and non-positive lanes are
            // masked to +0.0, exactly like `if r > 0.0 { r } else { 0.0 }`.
            let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(r, zero);
            _mm256_storeu_pd(rise.as_mut_ptr().add(i), _mm256_and_pd(r, mask));
            i += 4;
        }
        for (slot, (&t, &p)) in rise[i..]
            .iter_mut()
            .zip(temperatures[i..].iter().zip(&previous[i..]))
        {
            let r = t - ambient - p;
            *slot = if r > 0.0 { r } else { 0.0 };
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use super::LANE_CHUNK;
    use std::arch::aarch64::*;

    /// # Safety
    /// Requires NEON (guaranteed by the caller's [`super::detected`] gate).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn chunk_all_zero(chunk: &[f64; LANE_CHUNK]) -> bool {
        for pair in 0..4 {
            let v = vld1q_f64(chunk.as_ptr().add(2 * pair));
            // vceqzq: NaN lanes compare false, like scalar `v == 0.0`.
            let eq = vceqzq_f64(v);
            if vgetq_lane_u64::<0>(eq) == 0 || vgetq_lane_u64::<1>(eq) == 0 {
                return false;
            }
        }
        true
    }

    /// # Safety
    /// Requires NEON; slices must hold [`LANE_CHUNK`] lanes.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn relax_chunk_temperature(
        ambient: f64,
        max_temperature: f64,
        crosstalk: &[f64],
        temperature: &mut [f64],
    ) {
        let amb = vdupq_n_f64(ambient);
        let tmax = vdupq_n_f64(max_temperature);
        let zero = vdupq_n_f64(0.0);
        for pair in 0..4 {
            let x = vld1q_f64(crosstalk.as_ptr().add(2 * pair));
            // vmaxnm/vminnm implement IEEE maxNum/minNum (NaN yields the
            // other operand), matching Rust's `f64::max`/`f64::min` — the
            // plain vmaxq/vminq variants propagate NaN and would not.
            let rise = vmaxnmq_f64(x, zero);
            let t = vminnmq_f64(vaddq_f64(amb, rise), tmax);
            vst1q_f64(temperature.as_mut_ptr().add(2 * pair), t);
        }
    }

    /// # Safety
    /// Requires NEON; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(alpha: f64, src: &[f64], dst: &mut [f64]) {
        let a = vdupq_n_f64(alpha);
        let mut i = 0;
        // Separate mul + add (no FMA): rounds exactly like `d + alpha * s`.
        while i + 2 <= dst.len() {
            let s = vld1q_f64(src.as_ptr().add(i));
            let d = vld1q_f64(dst.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(d, vmulq_f64(a, s)));
            i += 2;
        }
        for (d, &s) in dst[i..].iter_mut().zip(&src[i..]) {
            *d += alpha * s;
        }
    }

    /// # Safety
    /// Requires NEON; the caller guarantees every shifted read
    /// `j - c` for `j` in `lo..hi` stays inside `src`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn stencil_interior(
        shifts: &[(isize, f64)],
        src: &[f64],
        dst: &mut [f64],
        lo: usize,
        hi: usize,
    ) {
        let mut j = lo;
        while j + 2 <= hi {
            let mut d = vld1q_f64(dst.as_ptr().add(j));
            for &(c, a) in shifts {
                let s = vld1q_f64(src.as_ptr().add((j as isize - c) as usize));
                // Separate mul + add per term preserves the scalar rounding.
                d = vaddq_f64(d, vmulq_f64(vdupq_n_f64(a), s));
            }
            vst1q_f64(dst.as_mut_ptr().add(j), d);
            j += 2;
        }
        for j in j..hi {
            let mut acc = dst[j];
            for &(c, a) in shifts {
                acc += a * src[(j as isize - c) as usize];
            }
            dst[j] = acc;
        }
    }

    /// # Safety
    /// Requires NEON; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn blend_into(blend: f64, previous: &[f64], acc: &mut [f64]) {
        let b = vdupq_n_f64(blend);
        let mut i = 0;
        while i + 2 <= acc.len() {
            let p = vld1q_f64(previous.as_ptr().add(i));
            let a = vld1q_f64(acc.as_ptr().add(i));
            let out = vaddq_f64(p, vmulq_f64(vsubq_f64(a, p), b));
            vst1q_f64(acc.as_mut_ptr().add(i), out);
            i += 2;
        }
        for (a, &p) in acc[i..].iter_mut().zip(&previous[i..]) {
            *a = p + (*a - p) * blend;
        }
    }

    /// # Safety
    /// Requires NEON; slices must have equal length (asserted by the caller).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn positive_rise(
        ambient: f64,
        temperatures: &[f64],
        previous: &[f64],
        rise: &mut [f64],
    ) {
        let amb = vdupq_n_f64(ambient);
        let zero = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 2 <= rise.len() {
            let t = vld1q_f64(temperatures.as_ptr().add(i));
            let p = vld1q_f64(previous.as_ptr().add(i));
            let r = vsubq_f64(vsubq_f64(t, amb), p);
            // vcgtq: NaN compares false, so NaN and non-positive lanes are
            // masked to +0.0, exactly like `if r > 0.0 { r } else { 0.0 }`.
            let mask = vcgtq_f64(r, zero);
            let masked = vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(r), mask));
            vst1q_f64(rise.as_mut_ptr().add(i), masked);
            i += 2;
        }
        for (slot, (&t, &p)) in rise[i..]
            .iter_mut()
            .zip(temperatures[i..].iter().zip(&previous[i..]))
        {
            let r = t - ambient - p;
            *slot = if r > 0.0 { r } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
        assert_eq!(SimdLevel::Neon.label(), "neon");
    }

    #[test]
    fn detection_is_consistent_and_sanitize_degrades() {
        let level = detected();
        #[cfg(not(feature = "simd"))]
        assert_eq!(level, SimdLevel::Scalar);
        assert_eq!(sanitize(level), level);
        // A level the hardware did not report degrades to Scalar.
        for request in [SimdLevel::Avx2, SimdLevel::Neon] {
            if request != level {
                assert_eq!(sanitize(request), SimdLevel::Scalar);
            }
        }
        assert_eq!(sanitize(SimdLevel::Scalar), SimdLevel::Scalar);
    }

    #[test]
    fn force_scalar_overrides_active() {
        force_scalar(true);
        assert_eq!(active(), SimdLevel::Scalar);
        force_scalar(false);
        assert_eq!(active(), detected());
    }

    #[test]
    fn chunk_all_zero_matches_scalar_semantics() {
        let level = detected();
        let zeros = [0.0; LANE_CHUNK];
        assert!(chunk_all_zero(level, &zeros));
        let mut neg = zeros;
        neg[3] = -0.0;
        assert!(chunk_all_zero(level, &neg), "-0.0 counts as zero");
        let mut biased = zeros;
        biased[7] = 0.525;
        assert!(!chunk_all_zero(level, &biased));
        let mut nan = zeros;
        nan[0] = f64::NAN;
        assert!(!chunk_all_zero(level, &nan), "NaN is not zero");
    }

    #[test]
    fn relax_temperature_matches_the_scalar_formula_bitwise() {
        let level = detected();
        let ambient = 293.0;
        let max_t = 1600.0;
        let crosstalk = [0.0, 25.0, -3.0, 1e4, 0.5, 1306.9, 1307.1, -0.0];
        let mut vector = [0.0; LANE_CHUNK];
        relax_chunk_temperature(level, ambient, max_t, &crosstalk, &mut vector);
        for (lane, &x) in crosstalk.iter().enumerate() {
            let scalar = (ambient + x.max(0.0)).min(max_t);
            assert_eq!(vector[lane].to_bits(), scalar.to_bits(), "lane {lane}");
        }
    }

    /// A deterministic ragged test vector: lengths that exercise the
    /// 4-wide/2-wide main loops plus every possible scalar tail.
    fn ragged(len: usize, seed: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.731 + seed).sin() * 40.0)
            .collect()
    }

    #[test]
    fn axpy_matches_the_scalar_loop_bitwise() {
        let level = detected();
        for len in [0, 1, 3, 4, 5, 7, 8, 13, 64, 255] {
            let src = ragged(len, 0.1);
            let mut vector = ragged(len, 2.7);
            let mut scalar = vector.clone();
            axpy(level, 0.137, &src, &mut vector);
            axpy(SimdLevel::Scalar, 0.137, &src, &mut scalar);
            for lane in 0..len {
                assert_eq!(
                    vector[lane].to_bits(),
                    scalar[lane].to_bits(),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn blend_into_matches_the_scalar_loop_bitwise() {
        let level = detected();
        for len in [0, 1, 3, 4, 5, 7, 8, 13, 64, 255] {
            let previous = ragged(len, 1.3);
            let mut vector = ragged(len, 4.9);
            let mut scalar = vector.clone();
            blend_into(level, 0.284, &previous, &mut vector);
            blend_into(SimdLevel::Scalar, 0.284, &previous, &mut scalar);
            for lane in 0..len {
                assert_eq!(
                    vector[lane].to_bits(),
                    scalar[lane].to_bits(),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn stencil_accumulate_matches_clipped_axpy_passes_bitwise() {
        let level = detected();
        let shifts = [(2isize, 0.31), (1, 0.17), (-1, 0.11), (-2, 0.05)];
        for len in [1, 2, 3, 4, 5, 7, 8, 13, 64, 255] {
            let src = ragged(len, 0.9);
            let mut vector = ragged(len, 5.3);
            let mut reference = vector.clone();
            stencil_accumulate(level, &shifts, &src, &mut vector);
            // Reference: one clipped axpy pass per shift, in shift order —
            // per destination element the same terms in the same order.
            let cols = len as isize;
            for &(c, a) in &shifts {
                let src_lo = (-c).max(0).min(cols);
                let src_hi = (cols - c).min(cols).max(src_lo);
                for s in src_lo..src_hi {
                    reference[(s + c) as usize] += a * src[s as usize];
                }
            }
            for lane in 0..len {
                assert_eq!(
                    vector[lane].to_bits(),
                    reference[lane].to_bits(),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn stencil_range_matches_clipped_axpy_passes_bitwise() {
        let level = detected();
        let shifts = [(2isize, 0.31), (1, 0.17), (-1, 0.11), (-2, 0.05)];
        for (len, from, to) in [
            (16usize, 3usize, 11usize),
            (64, 0, 64),
            (255, 100, 107),
            (13, 5, 5),
        ] {
            let src = ragged(len, 2.2);
            let mut vector = ragged(len, 6.1);
            let mut reference = vector.clone();
            stencil_accumulate_range(level, &shifts, &src, &mut vector, from, to);
            let cols = len as isize;
            for &(c, a) in &shifts {
                let src_lo = (from as isize - c).clamp(0, cols);
                let src_hi = (to as isize - c).clamp(src_lo, cols);
                for s in src_lo..src_hi {
                    reference[(s + c) as usize] += a * src[s as usize];
                }
            }
            for lane in 0..len {
                assert_eq!(
                    vector[lane].to_bits(),
                    reference[lane].to_bits(),
                    "len {len} range {from}..{to} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn positive_rise_matches_the_scalar_branch_bitwise() {
        let level = detected();
        for len in [0, 1, 3, 4, 5, 7, 8, 13, 64, 255] {
            let mut temperatures = ragged(len, 0.4);
            let previous = ragged(len, 3.1);
            if len > 2 {
                // Edge lanes: NaN and an exact cancellation both land on
                // +0.0 in the scalar branch.
                temperatures[1] = f64::NAN;
                temperatures[2] = -300.0 + previous[2];
            }
            let mut vector = vec![1.0; len];
            let mut scalar = vec![2.0; len];
            positive_rise(level, -300.0, &temperatures, &previous, &mut vector);
            positive_rise(
                SimdLevel::Scalar,
                -300.0,
                &temperatures,
                &previous,
                &mut scalar,
            );
            for lane in 0..len {
                assert_eq!(
                    vector[lane].to_bits(),
                    scalar[lane].to_bits(),
                    "len {len} lane {lane}"
                );
            }
        }
    }
}
