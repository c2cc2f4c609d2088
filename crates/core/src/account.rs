//! Per-VM Reso accounts.
//!
//! Each VM holds two sub-balances — one backed by its CPU allocation, one by
//! its share of the link's MTU capacity — replenished at every epoch.
//! "After every epoch we replenish the number of Resos of a VM to the
//! original allocated value. Any Resos left over from the earlier epoch are
//! discarded."

use crate::resos::Resos;
use serde::{Deserialize, Serialize};

/// One VM's currency account.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResoAccount {
    /// CPU Resos granted per epoch.
    pub cpu_alloc: Resos,
    /// I/O Resos granted per epoch (this VM's share of the link pool).
    pub io_alloc: Resos,
    cpu_remaining: Resos,
    io_remaining: Resos,
    /// Epochs this account has lived through.
    pub epochs: u64,
    /// Lifetime Resos charged (both kinds).
    pub lifetime_charged: Resos,
}

impl ResoAccount {
    /// Creates an account with the given per-epoch allocations, starting
    /// fully funded.
    pub fn new(cpu_alloc: Resos, io_alloc: Resos) -> Self {
        ResoAccount {
            cpu_alloc,
            io_alloc,
            cpu_remaining: cpu_alloc,
            io_remaining: io_alloc,
            epochs: 0,
            lifetime_charged: Resos::ZERO,
        }
    }

    /// Remaining CPU balance (may be negative within an interval).
    pub fn cpu_remaining(&self) -> Resos {
        self.cpu_remaining
    }

    /// Remaining I/O balance (may be negative within an interval).
    pub fn io_remaining(&self) -> Resos {
        self.io_remaining
    }

    /// Combined remaining balance.
    pub fn total_remaining(&self) -> Resos {
        self.cpu_remaining + self.io_remaining
    }

    /// Combined per-epoch allocation.
    pub fn total_alloc(&self) -> Resos {
        self.cpu_alloc + self.io_alloc
    }

    /// Remaining balance as a fraction of the allocation (≤ 0 when
    /// overdrawn). This drives FreeMarket's low-balance throttle.
    ///
    /// A zero allocation yields `1.0`: nothing was granted, so nothing is
    /// depleted. (Returning 0 here made zero-allocation VMs look fully
    /// depleted, and the low-balance throttle pinned them at the floor cap
    /// forever.)
    pub fn fraction_remaining(&self) -> f64 {
        let total = self.total_alloc();
        if total == Resos::ZERO {
            return 1.0;
        }
        self.total_remaining().fraction_of(total)
    }

    /// Charges CPU usage; returns the amount charged.
    pub fn charge_cpu(&mut self, amount: Resos) -> Resos {
        self.cpu_remaining -= amount;
        self.lifetime_charged += amount;
        amount
    }

    /// Charges I/O usage; returns the amount charged.
    pub fn charge_io(&mut self, amount: Resos) -> Resos {
        self.io_remaining -= amount;
        self.lifetime_charged += amount;
        amount
    }

    /// Epoch boundary: discard leftovers, refill to the allocation.
    /// Optionally installs new allocations (weighted redistribution can
    /// change a VM's share between epochs).
    ///
    /// Overdrafts are forgiven (the paper resets to the allocation) — a
    /// property a spend-to-zero free-rider exploits. Use
    /// [`ResoAccount::replenish_with`] with `carry_debt` to close it.
    pub fn replenish(&mut self, new_alloc: Option<(Resos, Resos)>) {
        self.replenish_with(new_alloc, false);
    }

    /// Epoch boundary with an explicit overdraft policy. With `carry_debt`
    /// the new balance is `alloc + min(remaining, 0)`: savings are still
    /// discarded, but debt run up by overspending carries into the next
    /// epoch, so a free-rider who spent to zero (or past it) starts the
    /// next epoch already down and cannot regain full priority within one
    /// charging interval of the boundary.
    pub fn replenish_with(&mut self, new_alloc: Option<(Resos, Resos)>, carry_debt: bool) {
        if let Some((cpu, io)) = new_alloc {
            self.cpu_alloc = cpu;
            self.io_alloc = io;
        }
        if carry_debt {
            self.cpu_remaining = self.cpu_alloc + self.cpu_remaining.min(Resos::ZERO);
            self.io_remaining = self.io_alloc + self.io_remaining.min(Resos::ZERO);
        } else {
            self.cpu_remaining = self.cpu_alloc;
            self.io_remaining = self.io_alloc;
        }
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct() -> ResoAccount {
        ResoAccount::new(Resos::from_whole(100_000), Resos::from_whole(524_288))
    }

    #[test]
    fn starts_fully_funded() {
        let a = acct();
        assert_eq!(a.cpu_remaining(), a.cpu_alloc);
        assert_eq!(a.io_remaining(), a.io_alloc);
        assert!((a.fraction_remaining() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charges_deduct() {
        let mut a = acct();
        a.charge_cpu(Resos::from_whole(100));
        a.charge_io(Resos::from_whole(1024));
        assert_eq!(a.cpu_remaining(), Resos::from_whole(99_900));
        assert_eq!(a.io_remaining(), Resos::from_whole(523_264));
        assert_eq!(a.lifetime_charged, Resos::from_whole(1124));
    }

    #[test]
    fn can_overdraw_within_interval() {
        let mut a = ResoAccount::new(Resos::from_whole(10), Resos::from_whole(10));
        a.charge_io(Resos::from_whole(25));
        assert!(a.io_remaining() < Resos::ZERO);
        assert!(a.fraction_remaining() < 0.0);
    }

    #[test]
    fn replenish_discards_leftovers() {
        let mut a = acct();
        a.charge_cpu(Resos::from_whole(60_000));
        a.replenish(None);
        assert_eq!(a.cpu_remaining(), a.cpu_alloc, "no carry-over of savings");
        assert_eq!(a.epochs, 1);
        // Overdrafts are forgiven too (the paper resets to the allocation).
        a.charge_io(a.io_alloc + Resos::from_whole(999));
        a.replenish(None);
        assert_eq!(a.io_remaining(), a.io_alloc);
    }

    #[test]
    fn replenish_can_install_new_allocation() {
        let mut a = acct();
        a.replenish(Some((Resos::from_whole(50_000), Resos::from_whole(100))));
        assert_eq!(a.cpu_alloc, Resos::from_whole(50_000));
        assert_eq!(a.io_remaining(), Resos::from_whole(100));
    }

    #[test]
    fn zero_allocation_is_fully_funded_not_depleted() {
        // Regression: this returned 0.0 ("fully depleted") and tripped the
        // low-balance throttle for VMs that were never granted anything.
        let a = ResoAccount::new(Resos::ZERO, Resos::ZERO);
        assert_eq!(a.fraction_remaining(), 1.0);
    }

    #[test]
    fn debt_carryover_keeps_overdrafts_but_discards_savings() {
        let mut a = ResoAccount::new(Resos::from_whole(100), Resos::from_whole(100));
        // Overspend I/O by 40, leave 30 CPU unspent.
        a.charge_io(Resos::from_whole(140));
        a.charge_cpu(Resos::from_whole(70));
        a.replenish_with(None, true);
        assert_eq!(a.io_remaining(), Resos::from_whole(60), "debt carried");
        assert_eq!(a.cpu_remaining(), a.cpu_alloc, "savings still discarded");
        // A free-rider deep in debt stays below the 10% low-balance line
        // right through the epoch boundary.
        let mut fr = ResoAccount::new(Resos::from_whole(100), Resos::from_whole(100));
        fr.charge_io(Resos::from_whole(300));
        assert!(fr.fraction_remaining() < 0.1);
        fr.replenish_with(None, true);
        assert!(
            fr.fraction_remaining() < 0.1,
            "spend-to-zero cannot regain full priority at the boundary: {}",
            fr.fraction_remaining()
        );
        // Legacy replenish still forgives.
        fr.replenish(None);
        assert!((fr.fraction_remaining() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_tracks_combined_balance() {
        let mut a = ResoAccount::new(Resos::from_whole(50), Resos::from_whole(50));
        a.charge_cpu(Resos::from_whole(50));
        a.charge_io(Resos::from_whole(40));
        assert!((a.fraction_remaining() - 0.1).abs() < 1e-12);
    }
}
