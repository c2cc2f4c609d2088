#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-hypervisor — Xen-like hypervisor substrate
//!
//! The paper's control plane: domains with guest memory, VCPUs pinned to
//! PCPUs, and a credit scheduler whose **CPU cap** is the only lever the
//! hypervisor has over VMM-bypass I/O. Two scheduling models (continuous
//! fluid shares and literal run/idle slices) enforce identical long-run
//! caps; experiments default to fluid and the ablation bench checks the
//! slice model tells the same story.
//!
//! Privileged operations — foreign memory mapping for IBMon, cap/weight
//! setting for ResEx — live in [`xenctrl`] and require a privileged caller,
//! mirroring Xen's dom0 model. CPU accounting for the charging loop lives
//! in [`xenstat`].

pub mod domain;
pub mod error;
pub mod hypervisor;
pub mod sched;
pub mod vcpu;
pub mod xenctrl;
pub mod xenstat;

pub use domain::{Domain, DomainId};
pub use error::HvError;
pub use hypervisor::{HvEvent, Hypervisor};
pub use sched::{fair_shares, SchedModel, ShareReq};
pub use vcpu::{PcpuId, VcpuId, VcpuMode};
pub use xenstat::{CpuUsage, XenStat};
