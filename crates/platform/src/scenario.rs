//! Scenario configuration: declarative descriptions of the paper's
//! experimental setups, turned into a running [`World`](crate::World).
//!
//! Terminology follows the paper: a VM is named by its configured buffer
//! size ("64KB VM", "2MB VM"); the *reporting* VM is the latency-sensitive
//! one; an *interfering* VM has a larger buffer. The canonical testbed is
//! two physical machines — servers (and dom0 with ResEx/IBMon) on one,
//! clients on the other.

use resex_adversary::AdversarySpec;
use resex_benchex::{ClientMode, ClientTuning, ServerConfig, TraceProfile};
use resex_core::{ResExConfig, SlaTarget};
use resex_fabric::{FabricConfig, Topology};
use resex_faults::FaultSchedule;
use resex_hypervisor::SchedModel;
use resex_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which pricing policy manages the run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Unmanaged (the paper's "base"/"interfered" runs).
    None,
    /// FreeMarket (Algorithm 1).
    FreeMarket,
    /// IOShares (Algorithm 2); SLAs come from each VM's `sla` field.
    IoShares,
}

/// Hardware QoS assigned to a VM's queue pair at the HCA — the alternative
/// isolation lever the paper mentions newer cards support.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosSpec {
    /// Strict priority level (lower = served first; default 0).
    pub priority: u8,
    /// Weighted-round-robin weight within the level (default 1).
    pub weight: u32,
    /// Egress bandwidth cap in bytes/second (None = unlimited).
    pub rate_limit: Option<u64>,
}

/// One server VM (plus its dedicated client on the client machine).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VmSpec {
    /// Display name; by convention the buffer size ("64KB").
    pub name: String,
    /// Response buffer size in bytes.
    pub buffer_size: u32,
    /// Workload trace for this VM's client.
    pub trace: TraceProfile,
    /// Client behaviour.
    pub client_mode: ClientMode,
    /// Initial CPU cap (0 = uncapped), for the static-cap experiments
    /// (Figures 3 and 4).
    pub initial_cap: u32,
    /// SLA for IOShares (reporting VMs only).
    pub sla: Option<SlaTarget>,
    /// Reso share weight.
    pub weight: u32,
    /// Hardware QoS for this VM's egress flow (None = default best-effort).
    pub qos: Option<QosSpec>,
    /// SLO latency threshold in µs for violation tracking (absent in
    /// older scenario files = derive from `sla` when present, else none).
    /// Pure observation — never feeds back into scheduling.
    #[serde(default)]
    pub slo_us: Option<f64>,
}

impl VmSpec {
    /// A standard latency-sensitive server VM with the given buffer size.
    pub fn server(name: impl Into<String>, buffer_size: u32) -> Self {
        VmSpec {
            name: name.into(),
            buffer_size,
            trace: TraceProfile::uniform_quotes(8),
            client_mode: ClientMode::ClosedLoop {
                think: SimDuration::from_micros(40),
            },
            initial_cap: 0,
            sla: None,
            weight: 1,
            qos: None,
            slo_us: None,
        }
    }

    /// Attaches an SLA (makes this a reporting VM under IOShares).
    pub fn with_sla(mut self, base_mean_us: f64, base_std_us: f64) -> Self {
        self.sla = Some(SlaTarget {
            base_mean_us,
            base_std_us,
        });
        self
    }

    /// Sets an initial static cap.
    pub fn with_cap(mut self, cap: u32) -> Self {
        self.initial_cap = cap;
        self
    }

    /// Replaces the client mode.
    pub fn with_client(mut self, mode: ClientMode) -> Self {
        self.client_mode = mode;
        self
    }

    /// Installs hardware QoS for this VM's egress flow.
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = Some(qos);
        self
    }

    /// Sets an explicit SLO latency threshold (µs) for violation tracking.
    pub fn with_slo(mut self, threshold_us: f64) -> Self {
        self.slo_us = Some(threshold_us);
        self
    }
}

/// Observability switches. Both default to off, which costs ~nothing (a
/// disabled tracer is one branch per would-be event). Turning either on
/// does not perturb simulated time: the same seed produces the same
/// results — and the same bytes of trace/metrics output — either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsOptions {
    /// Record structured trace events (exported as Chrome trace JSON).
    #[serde(default)]
    pub trace: bool,
    /// Record per-interval per-VM metric snapshots (exported as JSONL).
    #[serde(default)]
    pub metrics: bool,
    /// Profile the event loop itself (wall-clock self-time per event
    /// type, calendar sizes, allocation counts). Also forced on for every
    /// run while `resex_obs::profiler::global_enabled()` is set.
    #[serde(default)]
    pub profile: bool,
    /// Retain raw post-warmup latency records per VM (unbounded memory;
    /// for exact-percentile tests and offline tools).
    #[serde(default)]
    pub keep_records: bool,
}

/// A full experiment description (JSON-serializable; see the `simulate`
/// binary in `resex-bench` for file-driven runs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Human-readable label (appears in output).
    pub label: String,
    /// Server VMs (index order is VM id order).
    pub vms: Vec<VmSpec>,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Scheduler model.
    pub sched: SchedModel,
    /// ResEx parameters (ignored when `policy == None`).
    pub resex: ResExConfig,
    /// Active policy.
    pub policy: PolicyKind,
    /// Base server configuration (buffer size overridden per VM).
    pub server: ServerConfig,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Initial span excluded from summaries.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Observability switches (absent in older scenario files = off).
    #[serde(default)]
    pub obs: ObsOptions,
    /// Deterministic fault schedule (absent in older scenario files = no
    /// faults; an all-zero schedule is never installed, so such runs stay
    /// byte-identical to fault-unaware builds).
    #[serde(default)]
    pub faults: FaultSchedule,
    /// Antagonist-tenant spec (absent in older scenario files = no
    /// adversaries; a disabled spec is never installed, so such runs stay
    /// byte-identical to adversary-unaware builds).
    #[serde(default)]
    pub adversary: AdversarySpec,
    /// Client recovery knobs (absent in older scenario files = the
    /// historical constants: 10 ms request timeout, 16-retry budget).
    #[serde(default)]
    pub client_tuning: ClientTuning,
    /// Where this scenario's host pair sits (absent in older scenario
    /// files = the historical single-crossbar model, which changes
    /// nothing). A rack placement replaces the crossbar's switch+wire
    /// latency with the routed path's per-hop accumulation.
    #[serde(default)]
    pub topology: Topology,
}

/// The paper's canonical 64 KiB baseline latency, used as the default SLA.
pub const BASE_LATENCY_US: f64 = 209.0;

impl ScenarioConfig {
    /// A solo reporting VM — the paper's "base case".
    pub fn base_case(buffer_size: u32) -> Self {
        ScenarioConfig {
            label: format!("base-{}", fmt_size(buffer_size)),
            vms: vec![VmSpec::server(fmt_size(buffer_size), buffer_size)],
            fabric: FabricConfig::default(),
            sched: SchedModel::Fluid,
            resex: ResExConfig::default(),
            policy: PolicyKind::None,
            server: ServerConfig::default(),
            duration: SimDuration::from_secs(5),
            warmup: SimDuration::from_millis(200),
            seed: 42,
            obs: ObsOptions::default(),
            faults: FaultSchedule::default(),
            adversary: AdversarySpec::default(),
            client_tuning: ClientTuning::default(),
            topology: Topology::Crossbar,
        }
    }

    /// The canonical two-VM setup: a 64 KiB reporting VM plus an
    /// interferer with the given buffer size, unmanaged.
    pub fn interfered(intf_buffer: u32) -> Self {
        let mut cfg = ScenarioConfig::base_case(64 * 1024);
        cfg.label = format!("interfered-{}", fmt_size(intf_buffer));
        cfg.vms[0] = cfg.vms[0].clone().with_sla(BASE_LATENCY_US, 2.0);
        cfg.vms
            .push(VmSpec::server(fmt_size(intf_buffer), intf_buffer));
        cfg
    }

    /// The two-VM setup under a pricing policy.
    pub fn managed(intf_buffer: u32, policy: PolicyKind) -> Self {
        let mut cfg = ScenarioConfig::interfered(intf_buffer);
        cfg.label = format!("{:?}-{}", policy_tag(&policy), fmt_size(intf_buffer));
        cfg.policy = policy;
        cfg
    }

    /// A reporting VM plus `n_attackers` identically-sized interferers —
    /// the canonical setup for the adversarial-tenant experiments (the
    /// attackers masquerade as honest interferers; [`AdversarySpec`]
    /// decides which of them actually attack, and how). VM 0 is the
    /// reporter; VMs `1..=n_attackers` are the interferer slots.
    pub fn adversarial(intf_buffer: u32, n_attackers: usize, policy: PolicyKind) -> Self {
        assert!(n_attackers >= 1, "at least one interferer slot");
        let mut cfg = ScenarioConfig::interfered(intf_buffer);
        for k in 1..n_attackers {
            cfg.vms.push(VmSpec::server(
                format!("{}#{}", fmt_size(intf_buffer), k + 1),
                intf_buffer,
            ));
        }
        cfg.label = format!(
            "adversarial-{}x{}-{}",
            n_attackers,
            fmt_size(intf_buffer),
            policy_tag(&policy)
        );
        cfg.policy = policy;
        cfg
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<(), String> {
        if self.vms.is_empty() {
            return Err("at least one VM required".into());
        }
        self.fabric.validate()?;
        self.topology.validate()?;
        self.resex.validate()?;
        self.adversary
            .validate_for(self.vms.len())
            .map_err(|e| e.to_string())?;
        if self.warmup.as_nanos() >= self.duration.as_nanos() {
            return Err("warmup must be shorter than the run".into());
        }
        Ok(())
    }
}

/// Formats a byte count the way the paper names VMs ("64KB", "2MB").
pub fn fmt_size(bytes: u32) -> String {
    if bytes >= 1024 * 1024 && bytes.is_multiple_of(1024 * 1024) {
        format!("{}MB", bytes / (1024 * 1024))
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

fn policy_tag(p: &PolicyKind) -> &'static str {
    match p {
        PolicyKind::None => "none",
        PolicyKind::FreeMarket => "freemarket",
        PolicyKind::IoShares => "ioshares",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64 * 1024), "64KB");
        assert_eq!(fmt_size(2 * 1024 * 1024), "2MB");
        assert_eq!(fmt_size(1500), "1500B");
    }

    #[test]
    fn canonical_scenarios_validate() {
        assert!(ScenarioConfig::base_case(64 * 1024).validate().is_ok());
        assert!(ScenarioConfig::interfered(2 * 1024 * 1024)
            .validate()
            .is_ok());
        assert!(
            ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares)
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn interfered_has_reporting_sla() {
        let cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
        assert_eq!(cfg.vms.len(), 2);
        assert!(cfg.vms[0].sla.is_some());
        assert!(cfg.vms[1].sla.is_none());
        assert_eq!(cfg.vms[1].name, "2MB");
    }

    #[test]
    fn retired_policies_do_not_deserialize() {
        // A scenario file naming a pricing policy this crate no longer
        // carries fails to parse instead of running some other policy.
        for json in [
            r#""DemandPricing""#,
            r#"{"BufferRatio":{"reference":0}}"#,
            r#"{"StaticReserve":[[1,20]]}"#,
        ] {
            assert!(serde_json::from_str::<PolicyKind>(json).is_err(), "{json}");
        }
        for (json, kind) in [
            (r#""None""#, PolicyKind::None),
            (r#""FreeMarket""#, PolicyKind::FreeMarket),
            (r#""IoShares""#, PolicyKind::IoShares),
        ] {
            assert_eq!(serde_json::from_str::<PolicyKind>(json).unwrap(), kind);
        }
    }

    #[test]
    fn adversarial_builder_adds_interferer_slots() {
        let cfg = ScenarioConfig::adversarial(2 * 1024 * 1024, 3, PolicyKind::IoShares);
        assert_eq!(cfg.vms.len(), 4);
        assert!(cfg.vms[0].sla.is_some(), "VM 0 stays the reporter");
        assert_eq!(cfg.vms[1].name, "2MB");
        assert_eq!(cfg.vms[2].name, "2MB#2");
        assert_eq!(cfg.vms[3].name, "2MB#3");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_out_of_range_attackers() {
        let mut cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
        cfg.adversary =
            resex_adversary::AdversarySpec::parse("class=collude,attackers=1+2").unwrap();
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("does not exist"), "typed wiring error: {err}");
        // A matching 3-VM scenario accepts the same spec.
        let mut cfg = ScenarioConfig::adversarial(2 * 1024 * 1024, 2, PolicyKind::None);
        cfg.adversary =
            resex_adversary::AdversarySpec::parse("class=collude,attackers=1+2").unwrap();
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_long_warmup() {
        let mut cfg = ScenarioConfig::base_case(65536);
        cfg.warmup = cfg.duration;
        assert!(cfg.validate().is_err());
    }
}
