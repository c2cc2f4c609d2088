//! Fabric timing and capacity parameters.

use resex_simcore::time::SimDuration;
use serde::Serialize;

/// Tunable parameters of the simulated fabric.
///
/// Defaults follow the paper's testbed: a 10 Gbps InfiniBand link whose
/// 8b/10b encoding leaves 8 Gbps = 1 GiB/s of payload bandwidth, and a 1 KiB
/// MTU ("We assume a default MTU size of 1024 bytes"), giving the paper's
/// 1,048,576 MTUs per second of link capacity.
#[derive(Clone, Debug, Serialize)]
pub struct FabricConfig {
    /// Payload bandwidth of each node's egress link, bytes per second.
    pub link_bandwidth: u64,
    /// Maximum transmission unit in bytes; the chargeable I/O quantum.
    pub mtu_bytes: u32,
    /// Link-arbiter grant size in MTUs. The arbiter serves active queue
    /// pairs round-robin in grants of this many MTUs; 1 is exact per-packet
    /// round-robin, larger values trade arbitration fidelity for fewer
    /// simulation events (ablated in `resex-bench`).
    pub grant_mtus: u32,
    /// One-way latency through the crossbar switch.
    pub switch_latency: SimDuration,
    /// One-way cable propagation + receiver processing latency.
    pub wire_latency: SimDuration,
    /// Fixed HCA overhead from doorbell ring to first byte on the wire.
    pub wqe_overhead: SimDuration,
    /// Delay from last byte serialized to the sender-side completion
    /// (models the RC acknowledgement round-trip).
    pub ack_latency: SimDuration,
    /// Payloads at or below this size are byte-copied between guest
    /// memories; larger transfers are length-modeled only (their CQEs are
    /// still written for real). Keeps multi-megabyte interference streams
    /// cheap to simulate while control messages carry real data.
    pub payload_copy_threshold: u32,
    /// Relative standard deviation of per-grant hardware timing noise
    /// (PCIe/DMA arbitration, cache effects). 0 = fully deterministic
    /// (default). A few percent reproduces the broad latency smear real
    /// testbeds show in place of this model's clean bimodal split.
    pub hw_jitter: f64,
    /// Seed for the jitter stream (noise is still reproducible).
    pub jitter_seed: u64,
    /// Transport timeout before a lost/corrupted RC message is
    /// retransmitted (models the HCA's local-ACK timeout).
    pub retransmit_timeout: SimDuration,
    /// Transport retries before a lost RC message completes with
    /// [`WcStatus::RetryExceeded`](crate::WcStatus::RetryExceeded) and the
    /// QP enters `ERROR` (`ibv_qp_attr.retry_cnt`).
    pub retry_count: u32,
    /// Base RNR NAK backoff; attempt `n` waits `rnr_timer << (n-1)`.
    pub rnr_timer: SimDuration,
    /// RNR retries before the sender completes with `RnrRetryExceeded`
    /// and the QP enters `ERROR` (`ibv_qp_attr.rnr_retry`).
    pub rnr_retry_count: u32,
    /// Base delay before the connection manager's first reconnect attempt
    /// after a QP drops into `ERROR`; attempt `n` waits
    /// `reconnect_backoff << min(n, reconnect_max_shift)`.
    pub reconnect_backoff: SimDuration,
    /// Cap on the reconnect backoff exponent (bounds both the shift and
    /// the worst-case wait between attempts).
    pub reconnect_max_shift: u32,
}

// Hand-written so configs serialized before these knobs existed (or written
// by hand with a subset of fields) deserialize with the documented defaults:
// the vendored serde derive only supports bare `#[serde(default)]`, which
// would zero them.
impl serde::Deserialize for FabricConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("FabricConfig: expected object"))?;
        let mut cfg = FabricConfig::default();
        fn field<T: serde::Deserialize>(
            m: &serde::Map,
            key: &str,
            slot: &mut T,
        ) -> Result<(), serde::Error> {
            if let Some(x) = m.get(key) {
                *slot = T::from_value(x)?;
            }
            Ok(())
        }
        field(m, "link_bandwidth", &mut cfg.link_bandwidth)?;
        field(m, "mtu_bytes", &mut cfg.mtu_bytes)?;
        field(m, "grant_mtus", &mut cfg.grant_mtus)?;
        field(m, "switch_latency", &mut cfg.switch_latency)?;
        field(m, "wire_latency", &mut cfg.wire_latency)?;
        field(m, "wqe_overhead", &mut cfg.wqe_overhead)?;
        field(m, "ack_latency", &mut cfg.ack_latency)?;
        field(m, "payload_copy_threshold", &mut cfg.payload_copy_threshold)?;
        field(m, "hw_jitter", &mut cfg.hw_jitter)?;
        field(m, "jitter_seed", &mut cfg.jitter_seed)?;
        field(m, "retransmit_timeout", &mut cfg.retransmit_timeout)?;
        field(m, "retry_count", &mut cfg.retry_count)?;
        field(m, "rnr_timer", &mut cfg.rnr_timer)?;
        field(m, "rnr_retry_count", &mut cfg.rnr_retry_count)?;
        field(m, "reconnect_backoff", &mut cfg.reconnect_backoff)?;
        field(m, "reconnect_max_shift", &mut cfg.reconnect_max_shift)?;
        Ok(cfg)
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            // 8 Gbps effective = 1 GiB/s as the paper computes it.
            link_bandwidth: 1024 * 1024 * 1024,
            mtu_bytes: 1024,
            grant_mtus: 16,
            switch_latency: SimDuration::from_nanos(300),
            wire_latency: SimDuration::from_nanos(300),
            wqe_overhead: SimDuration::from_nanos(500),
            ack_latency: SimDuration::from_nanos(1200),
            payload_copy_threshold: 4096,
            hw_jitter: 0.0,
            jitter_seed: 0x1B_CAFE,
            retransmit_timeout: SimDuration::from_micros(50),
            retry_count: 7,
            rnr_timer: SimDuration::from_micros(10),
            rnr_retry_count: 7,
            reconnect_backoff: SimDuration::from_micros(100),
            reconnect_max_shift: 8,
        }
    }
}

impl FabricConfig {
    /// Time to serialize `bytes` onto the link.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        // Integer arithmetic: ns = bytes * 1e9 / bw, computed in u128 to
        // avoid overflow for multi-gigabyte transfers.
        let ns = (bytes as u128 * 1_000_000_000u128) / self.link_bandwidth as u128;
        SimDuration::from_nanos(ns as u64)
    }

    /// One-way latency from sender NIC to receiver NIC, excluding
    /// serialization.
    pub fn one_way_latency(&self) -> SimDuration {
        self.switch_latency + self.wire_latency
    }

    /// Validates internal consistency; called by the fabric constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_bandwidth == 0 {
            return Err("link_bandwidth must be positive".into());
        }
        if self.mtu_bytes == 0 || !self.mtu_bytes.is_power_of_two() {
            return Err(format!(
                "mtu_bytes must be a power of two, got {}",
                self.mtu_bytes
            ));
        }
        if self.grant_mtus == 0 {
            return Err("grant_mtus must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.hw_jitter) {
            return Err(format!(
                "hw_jitter must be in [0, 1), got {}",
                self.hw_jitter
            ));
        }
        if self.retransmit_timeout == SimDuration::ZERO {
            return Err("retransmit_timeout must be positive".into());
        }
        if self.rnr_timer == SimDuration::ZERO {
            return Err("rnr_timer must be positive".into());
        }
        if self.reconnect_backoff == SimDuration::ZERO {
            return Err("reconnect_backoff must be positive".into());
        }
        if self.reconnect_max_shift >= 63 {
            return Err(format!(
                "reconnect_max_shift must be below 63, got {}",
                self.reconnect_max_shift
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_numbers() {
        let c = FabricConfig::default();
        assert_eq!(
            c.link_bandwidth / c.mtu_bytes as u64,
            1_048_576,
            "paper: 1,048,576 MTUs/epoch"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serialization_time_scales() {
        let c = FabricConfig::default();
        let t1 = c.serialization_time(1024);
        let t64 = c.serialization_time(64 * 1024);
        // Each computed independently (integer ns), so allow truncation slack.
        assert!((t64.as_nanos() as i64 - t1.as_nanos() as i64 * 64).unsigned_abs() <= 64);
        // 64 KiB at 1 GiB/s ≈ 61 µs.
        assert!((t64.as_micros_f64() - 61.0).abs() < 1.0, "{t64}");
        assert_eq!(c.serialization_time(0), SimDuration::ZERO);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = FabricConfig {
            mtu_bytes: 1000,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            grant_mtus: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            link_bandwidth: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            hw_jitter: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            hw_jitter: 0.05,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let c = FabricConfig {
            retransmit_timeout: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            rnr_timer: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn partial_configs_deserialize_with_defaults() {
        // A config written before the retransmission knobs existed must come
        // back with the documented defaults, not zeros.
        let v: serde::Value = serde::Serialize::to_value(&42u64);
        let mut m = serde::Map::new();
        m.insert("jitter_seed".to_string(), v);
        let cfg = <FabricConfig as serde::Deserialize>::from_value(&serde::Value::Object(m))
            .expect("partial config");
        assert_eq!(cfg.jitter_seed, 42);
        assert_eq!(cfg.retry_count, FabricConfig::default().retry_count);
        assert_eq!(
            cfg.retransmit_timeout,
            FabricConfig::default().retransmit_timeout
        );
        assert_eq!(
            cfg.reconnect_backoff,
            FabricConfig::default().reconnect_backoff
        );
        assert_eq!(
            cfg.reconnect_max_shift,
            FabricConfig::default().reconnect_max_shift
        );
        assert!(cfg.validate().is_ok());
    }
}
