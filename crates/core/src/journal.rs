//! The write-ahead decision journal.
//!
//! The manager's pricing loop is a single point of failure: its in-memory
//! state (accounts, policy internals, stale-telemetry bases) dies with it.
//! The journal is the part that survives — an append-only log of what the
//! manager *decided*: which VMs were admitted at what weight, and after
//! every charging interval, each VM's full account (balances, allocations,
//! debt) plus the cap it was assigned. A restarted manager replays the log
//! to rebuild its books exactly, then runs a catch-up settlement over the
//! intervals it slept through so the Reso supply stays conserved across
//! the outage. Policy-internal state is deliberately *not* journaled:
//! losing it is the damage a crash models.

use crate::account::ResoAccount;
use crate::pricing::VmId;
use serde::{Deserialize, Serialize};

/// One VM's entry in an interval record: the account exactly as it stood
/// after the interval's charges, and the cap the policy assigned (if any).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IntervalEntry {
    /// The VM.
    pub vm: VmId,
    /// The account after this interval's charges (balances can be
    /// negative: overdrafts are the journal's debt records).
    pub account: ResoAccount,
    /// The cap actuation issued this interval, if the policy set one.
    pub cap_pct: Option<u32>,
}

/// One append-only journal record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A VM was admitted (or re-admitted) at the given share weight.
    Register {
        /// The VM.
        vm: VmId,
        /// Its share weight.
        weight: u32,
    },
    /// One charging interval settled.
    Interval {
        /// The interval's index (monotone).
        index: u64,
        /// True if this interval opened a new epoch.
        epoch_started: bool,
        /// Per-VM accounts and caps, sorted by [`VmId`].
        entries: Vec<IntervalEntry>,
    },
}

/// The append-only decision journal. In this reproduction it lives in
/// memory on the world side of the manager boundary — the point is not
/// durability of bytes but the *recovery protocol*: everything a restarted
/// manager needs must flow through here and nothing else.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DecisionJournal {
    records: Vec<JournalRecord>,
}

impl DecisionJournal {
    /// An empty journal.
    pub fn new() -> Self {
        DecisionJournal::default()
    }

    /// Appends one record.
    pub fn append(&mut self, rec: JournalRecord) {
        self.records.push(rec);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The most recently journaled account for `vm`, if any interval
    /// recorded it. This funds a crashed VM's re-admission.
    pub fn last_balance(&self, vm: VmId) -> Option<ResoAccount> {
        self.records.iter().rev().find_map(|r| match r {
            JournalRecord::Interval { entries, .. } => {
                entries.iter().find(|e| e.vm == vm).map(|e| e.account)
            }
            _ => None,
        })
    }
}
