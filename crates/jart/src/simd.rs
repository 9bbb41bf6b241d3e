//! The instruction-set tier of the lane kernel and the crosstalk hub.
//!
//! Both run one portable scalar path on every build and CPU; their
//! block-wide loops are plain slice passes the compiler vectorizes on its
//! own. The tier is reported in benchmark provenance and by
//! `rram_crossbar::HammerBackend::simd_isa`, and it is always
//! [`SimdLevel::Scalar`].

/// The instruction set the lane kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scalar path.
    Scalar,
}

impl SimdLevel {
    /// Stable lower-case label for benchmark/report JSON.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
        }
    }
}

/// The tier this build can run: always [`SimdLevel::Scalar`].
pub fn detected() -> SimdLevel {
    SimdLevel::Scalar
}

/// The tier kernel calls use: always [`SimdLevel::Scalar`].
pub fn active() -> SimdLevel {
    SimdLevel::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_one_tier_is_scalar() {
        assert_eq!(detected(), SimdLevel::Scalar);
        assert_eq!(active(), SimdLevel::Scalar);
        assert_eq!(active().label(), "scalar");
    }
}
