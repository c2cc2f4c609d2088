//! The Reso — ResEx's resource currency.
//!
//! "We introduce the concept of 'Resource Units' or Resos using which VMs
//! 'buy' resources to use during their execution. Each Reso enables the VM
//! to buy a certain amount of CPU and IB MTUs."
//!
//! Resos are stored as integer **milli-Resos** (`i64`) so that accounting
//! identities hold exactly (property-tested): no float drift can mint or
//! destroy currency. Charges computed from fractional rates round *up* —
//! against the VM — so a VM can never squeeze free I/O out of rounding.
//! Balances may go negative: a VM can overdraw within one interval (usage
//! is only observed after the fact); policies react on the next interval.
//!
//! All arithmetic **saturates** at the `i64` extremes instead of wrapping:
//! a pathological epoch allocation (`from_whole(i64::MAX)`) or an absurd
//! charge pegs at the representable maximum rather than flipping sign —
//! wrapping would let a huge debit *mint* currency. This is property-tested
//! in `tests/overflow.rs`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A signed amount of currency, in milli-Resos.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Resos(i64);

impl Resos {
    /// Zero Resos.
    pub const ZERO: Resos = Resos(0);

    /// Constructs from whole Resos, saturating at the `i64` milli-Reso
    /// extremes (no configuration can wrap an allocation negative).
    #[inline]
    pub const fn from_whole(n: i64) -> Self {
        Resos(n.saturating_mul(1000))
    }

    /// Constructs from milli-Resos.
    #[inline]
    pub const fn from_milli(m: i64) -> Self {
        Resos(m)
    }

    /// The value in milli-Resos.
    #[inline]
    pub const fn as_milli(self) -> i64 {
        self.0
    }

    /// The value in (fractional) whole Resos.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Charges `units` of a resource at `rate` Resos per unit, rounding up
    /// (against the VM). Charges beyond the `i64` milli-Reso range saturate
    /// at `i64::MAX` — an overcharge, never a sign flip that would credit
    /// the VM.
    ///
    /// # Panics
    /// If `rate` is negative or non-finite.
    pub fn charge(units: f64, rate: f64) -> Resos {
        assert!(rate >= 0.0 && rate.is_finite(), "invalid rate {rate}");
        assert!(units >= 0.0 && units.is_finite(), "invalid units {units}");
        let milli = (units * rate * 1000.0).ceil();
        // Any real configuration stays far below this; catch the ones that
        // don't during development.
        debug_assert!(
            milli < i64::MAX as f64,
            "charge({units}, {rate}) exceeds the milli-Reso range"
        );
        // `as` saturates float→int, but make the clamp explicit so the
        // no-minting guarantee does not hinge on a cast subtlety.
        if milli >= i64::MAX as f64 {
            Resos(i64::MAX)
        } else {
            Resos(milli as i64)
        }
    }

    /// Multiplies by a non-negative fraction, rounding down (allocations
    /// never exceed the pool).
    pub fn scale(self, f: f64) -> Resos {
        assert!(f >= 0.0 && f.is_finite(), "invalid factor {f}");
        Resos((self.0 as f64 * f).floor() as i64)
    }

    /// This balance as a fraction of `total` (0 when `total` is zero).
    pub fn fraction_of(self, total: Resos) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }
}

impl Add for Resos {
    type Output = Resos;
    #[inline]
    fn add(self, rhs: Resos) -> Resos {
        Resos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Resos {
    #[inline]
    fn add_assign(&mut self, rhs: Resos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Resos {
    type Output = Resos;
    #[inline]
    fn sub(self, rhs: Resos) -> Resos {
        Resos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Resos {
    #[inline]
    fn sub_assign(&mut self, rhs: Resos) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Neg for Resos {
    type Output = Resos;
    #[inline]
    fn neg(self) -> Resos {
        // i64::MIN has no positive counterpart; saturate rather than wrap.
        Resos(self.0.checked_neg().unwrap_or(i64::MAX))
    }
}

impl Sum for Resos {
    fn sum<I: Iterator<Item = Resos>>(iter: I) -> Resos {
        iter.fold(Resos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Resos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}R", self.as_f64())
    }
}

impl fmt::Display for Resos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Resos", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Resos::from_whole(5).as_milli(), 5000);
        assert_eq!(Resos::from_milli(1500).as_f64(), 1.5);
        assert_eq!(Resos::ZERO.as_milli(), 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Resos::from_whole(10);
        let b = Resos::from_milli(2500);
        assert_eq!((a + b) - b, a);
        assert_eq!(a - a, Resos::ZERO);
        assert_eq!(-b + b, Resos::ZERO);
        let total: Resos = [a, b, b].into_iter().sum();
        assert_eq!(total.as_milli(), 10_000 + 5_000);
    }

    #[test]
    fn charge_rounds_against_the_vm() {
        // 1 MTU at rate 1 → exactly 1 Reso.
        assert_eq!(Resos::charge(1.0, 1.0), Resos::from_whole(1));
        // Fractional charge rounds up at milli precision.
        assert_eq!(Resos::charge(1.0, 1.0001), Resos::from_milli(1001));
        assert_eq!(Resos::charge(3.0, 0.3333), Resos::from_milli(1000));
        assert_eq!(Resos::charge(0.0, 5.0), Resos::ZERO);
    }

    #[test]
    fn scale_rounds_down() {
        let pool = Resos::from_whole(1_048_576);
        let half = pool.scale(0.5);
        assert_eq!(half, Resos::from_whole(524_288));
        // Thirds cannot over-allocate.
        let third = pool.scale(1.0 / 3.0);
        assert!(third + third + third <= pool);
    }

    #[test]
    fn fraction_of() {
        let total = Resos::from_whole(100_000);
        assert!((Resos::from_whole(10_000).fraction_of(total) - 0.1).abs() < 1e-12);
        assert_eq!(Resos::from_whole(1).fraction_of(Resos::ZERO), 0.0);
    }

    #[test]
    fn negativity() {
        let x = Resos::from_whole(1) - Resos::from_whole(2);
        assert!(x < Resos::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_rate_panics() {
        Resos::charge(1.0, -1.0);
    }

    #[test]
    fn extremes_saturate_instead_of_wrapping() {
        // Regression: these wrapped in release builds (and aborted in
        // debug) before the arithmetic became saturating.
        assert_eq!(Resos::from_whole(i64::MAX).as_milli(), i64::MAX);
        assert_eq!(Resos::from_whole(i64::MIN).as_milli(), i64::MIN);
        let top = Resos::from_milli(i64::MAX);
        let bottom = Resos::from_milli(i64::MIN);
        assert_eq!(top + top, top, "addition pegs at MAX");
        assert_eq!(bottom - top, bottom, "subtraction pegs at MIN");
        assert_eq!(-bottom, top, "negating MIN saturates");
        let mut acc = top;
        acc += top;
        assert_eq!(acc, top);
        acc -= bottom;
        assert_eq!(acc, top);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Resos::from_milli(2500)), "2.500 Resos");
        assert_eq!(format!("{:?}", Resos::from_whole(3)), "3R");
    }
}
