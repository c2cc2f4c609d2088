//! ResEx configuration.

use resex_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// What happens to a VM's CPU cap once its Reso balance runs low — the
/// paper uses the gradual walk-down and notes "there are multiple ways in
/// order to reduce the CPU when the VM runs out of Resos"; these are the
/// obvious alternatives, ablated in `resex-bench`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepletionMode {
    /// Walk the cap down by `cap_decrement_pct` per interval (the paper's
    /// "gradual decrease in performance … rather than a sudden stoppage").
    Gradual,
    /// Drop straight to the floor cap the moment the balance crosses the
    /// threshold (the "abrupt stop" the paper avoids).
    HardStop,
    /// Track the balance: cap follows the remaining fraction linearly from
    /// 100 at the threshold down to the floor at zero.
    Proportional,
}

/// Parameters of the ResEx manager and its charging machinery, defaulting
/// to the paper's numbers (§VI-A).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ResExConfig {
    /// Allocation epoch ("in our case 1 second").
    pub epoch: SimDuration,
    /// Charging interval ("every interval of 1 millisecond").
    pub interval: SimDuration,
    /// CPU Resos allocated to each VM per epoch
    /// (`PercentPerInterval * NumberOfIntervals = 100 * 1000 = 100,000`).
    pub cpu_resos_per_epoch: i64,
    /// Aggregate I/O Resos per epoch, shared among VMs — the link's MTU
    /// capacity (`LinkBW / MTUSize = 1,048,576` for 1 GiB/s and 1 KiB).
    pub io_resos_per_epoch: i64,
    /// FreeMarket: start throttling when the remaining balance drops below
    /// this fraction ("below a certain limit (10% in our case)").
    pub low_balance_fraction: f64,
    /// FreeMarket: only throttle if at least this fraction of the epoch is
    /// still ahead ("more than 10% of the epoch is remaining").
    pub min_epoch_remaining_fraction: f64,
    /// FreeMarket: cap decrement per throttled interval, in percentage
    /// points ("decremented by 10% from its earlier allocated value").
    pub cap_decrement_pct: u32,
    /// Floor below which no policy will push a VM's cap (keeps guests
    /// live-lockable-free; the paper sweeps down to 3%).
    pub min_cap_pct: u32,
    /// IOShares: interference threshold in percent over the SLA baseline
    /// ("if the percentage increase is greater than a certain value (i.e.,
    /// SLA guarantee)").
    pub sla_threshold_pct: f64,
    /// IOShares: per-interval decay of an elevated charging rate back
    /// toward 1 when no interference is detected (the "back off" behaviour
    /// of Figure 8).
    pub rate_decay: f64,
    /// How FreeMarket throttles a VM whose balance runs low.
    pub depletion: DepletionMode,
    /// Watchdog: consecutive stale IBMon intervals after which the manager
    /// stops trusting the decayed last-known rate and fails safe — cap to
    /// `min_cap_pct`, basis zeroed, streak reset — instead of decaying
    /// prices forever. 0 disables the stale watchdog (also the value
    /// configs serialized before this knob existed deserialize to).
    #[serde(default)]
    pub watchdog_stale_intervals: u32,
    /// Watchdog: consecutive failed cap actuations on one domain after
    /// which the platform escalates to the slow-but-reliable privileged
    /// reset path. 0 disables the actuation watchdog.
    #[serde(default)]
    pub watchdog_actuation_failures: u32,
    /// Hardening vs phase-locked bursts: fraction of the charging interval
    /// by which the platform jitters each interval's sampling instant
    /// (uniform in `±frac/2`, drawn from a dedicated seeded stream). An
    /// attacker who times bursts to the interval tail can no longer predict
    /// when the next sample lands. 0 (the default, and what older configs
    /// deserialize to) keeps the legacy fixed-phase cadence byte-identical.
    #[serde(default)]
    pub interval_jitter_frac: f64,
    /// Hardening vs telemetry poisoning: cross-check IBMon's ring-scan MTU
    /// estimate against the fabric's per-QP completion counters each
    /// interval and substitute the counter-derived value when the scan
    /// under-reports by more than 2× (ring-wrap aliasing bias). Off by
    /// default for byte-identity with pre-hardening runs.
    #[serde(default)]
    pub ibmon_crosscheck: bool,
    /// Hardening vs collusion: IOShares tracks per-VM activity EWMAs and
    /// co-indicts every non-SLA VM whose smoothed activity is within half
    /// of the top interferer's, so a group that alternates bursts cannot
    /// rotate blame and buy more than its aggregate share. Off by default.
    #[serde(default)]
    pub group_clamp: bool,
    /// Hardening vs free-riding: epoch replenishment carries overdrafts
    /// forward (`remaining = alloc + min(remaining, 0)`) instead of
    /// forgiving them, so spend-to-zero does not reset to full priority at
    /// the next epoch. Off by default (the paper forgives overdrafts).
    #[serde(default)]
    pub debt_carryover: bool,
    /// Hardening vs free-riding: FreeMarket throttles any fully-depleted
    /// (≤ 0 remaining) VM regardless of how much of the epoch is left, and
    /// epoch restores skip VMs still in debt — closing the epoch-tail
    /// throttle-free window the spend-to-zero attacker coasts through.
    /// Off by default.
    #[serde(default)]
    pub hard_floor: bool,
}

impl Default for ResExConfig {
    fn default() -> Self {
        ResExConfig {
            epoch: SimDuration::from_secs(1),
            interval: SimDuration::from_millis(1),
            cpu_resos_per_epoch: 100_000,
            io_resos_per_epoch: 1_048_576,
            low_balance_fraction: 0.10,
            min_epoch_remaining_fraction: 0.10,
            cap_decrement_pct: 10,
            min_cap_pct: 3,
            sla_threshold_pct: 10.0,
            rate_decay: 0.85,
            depletion: DepletionMode::Gradual,
            // Past ~8 dark intervals the decayed estimate is mostly noise
            // (0.85^8 ≈ 0.27 of the last fresh rate); long enough that the
            // ordinary one-to-three-interval stale blips the fault plane
            // injects never trip it.
            watchdog_stale_intervals: 8,
            watchdog_actuation_failures: 5,
            interval_jitter_frac: 0.0,
            ibmon_crosscheck: false,
            group_clamp: false,
            debt_carryover: false,
            hard_floor: false,
        }
    }
}

impl ResExConfig {
    /// Charging intervals per epoch.
    pub fn intervals_per_epoch(&self) -> u64 {
        (self.epoch.as_nanos() / self.interval.as_nanos()).max(1)
    }

    /// The paper's defaults with every adversary-hardening measure switched
    /// on: phase-jittered sampling, IBMon/fabric cross-checking, colluding
    /// group clamping, overdraft carryover, and the hard depletion floor.
    pub fn hardened() -> Self {
        ResExConfig {
            interval_jitter_frac: 0.3,
            ibmon_crosscheck: true,
            group_clamp: true,
            debt_carryover: true,
            hard_floor: true,
            ..Default::default()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval.is_zero() || self.epoch.is_zero() {
            return Err("epoch and interval must be positive".into());
        }
        if self.epoch < self.interval {
            return Err("epoch must be at least one interval".into());
        }
        if !(0.0..=1.0).contains(&self.low_balance_fraction) {
            return Err("low_balance_fraction must be in [0,1]".into());
        }
        if !(0.0..1.0).contains(&self.rate_decay) {
            return Err("rate_decay must be in [0,1)".into());
        }
        if self.min_cap_pct == 0 || self.min_cap_pct > 100 {
            return Err("min_cap_pct must be in 1..=100".into());
        }
        if !(0.0..1.0).contains(&self.interval_jitter_frac) {
            return Err("interval_jitter_frac must be in [0,1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ResExConfig::default();
        assert_eq!(c.intervals_per_epoch(), 1000);
        assert_eq!(c.cpu_resos_per_epoch, 100_000);
        assert_eq!(c.io_resos_per_epoch, 1_048_576);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let c = ResExConfig {
            epoch: SimDuration::from_micros(1),
            ..Default::default()
        };
        assert!(c.validate().is_err(), "epoch < interval");
        let c = ResExConfig {
            rate_decay: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ResExConfig {
            min_cap_pct: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ResExConfig {
            interval_jitter_frac: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "full-interval jitter is rejected");
    }

    #[test]
    fn watchdog_defaults_pin_the_historical_constants() {
        // These were hardcoded (K=8 stale intervals, M=5 actuation
        // failures) before they became config knobs; the defaults must
        // keep existing runs byte-identical.
        let c = ResExConfig::default();
        assert_eq!(c.watchdog_stale_intervals, 8);
        assert_eq!(c.watchdog_actuation_failures, 5);
    }

    #[test]
    fn hardened_preset_enables_every_measure_and_validates() {
        let c = ResExConfig::hardened();
        assert!(c.interval_jitter_frac > 0.0);
        assert!(c.ibmon_crosscheck && c.group_clamp && c.debt_carryover && c.hard_floor);
        assert!(c.validate().is_ok());
        // The hardening knobs default off so pre-hardening configs (and
        // byte-identity baselines) are unaffected.
        let d = ResExConfig::default();
        assert_eq!(d.interval_jitter_frac, 0.0);
        assert!(!d.ibmon_crosscheck && !d.group_clamp && !d.debt_carryover && !d.hard_floor);
    }
}
