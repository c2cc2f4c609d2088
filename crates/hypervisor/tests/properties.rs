//! Property-based tests for scheduler math and accounting invariants.

use proptest::prelude::*;
use resex_hypervisor::sched::{fluid_finish, slice_finish, slice_progress};
use resex_hypervisor::{fair_shares, Hypervisor, SchedModel, ShareReq};
use resex_simcore::time::{SimDuration, SimTime};

proptest! {
    /// Fair shares: sum ≤ 1, every rate ∈ [0, min(cap, 1)], and the
    /// surplus from capped VCPUs goes to uncapped ones (work conservation
    /// when anyone is uncapped).
    #[test]
    fn fair_shares_invariants(reqs in prop::collection::vec((1u32..1000, prop::option::of(0.01f64..1.0)), 1..8)) {
        let shares: Vec<ShareReq> = reqs
            .iter()
            .map(|&(weight, cap)| ShareReq { weight, cap })
            .collect();
        let rates = fair_shares(&shares);
        let sum: f64 = rates.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum={sum}");
        for (r, s) in rates.iter().zip(&shares) {
            prop_assert!(*r >= -1e-12);
            prop_assert!(*r <= s.cap.unwrap_or(1.0).min(1.0) + 1e-9);
        }
        // Work conservation: if any VCPU is uncapped, capacity is fully used
        // (sum == 1) unless everyone else's caps already bind.
        if shares.iter().any(|s| s.cap.is_none()) {
            prop_assert!(sum > 1.0 - 1e-9, "uncapped VCPU must soak up slack, sum={sum}");
        }
    }

    /// Slice progress and finish are inverse functions.
    #[test]
    fn slice_inverse(
        start_us in 0u64..100_000,
        need_us in 1u64..500_000,
        cap_pct in 1u32..=100,
    ) {
        let period = SimDuration::from_millis(10);
        let c = cap_pct as f64 / 100.0;
        let start = SimTime::from_micros(start_us);
        let need = SimDuration::from_micros(need_us);
        let fin = slice_finish(start, need, c, period);
        let got = slice_progress(start, fin, c, period);
        let err = got.as_nanos() as i64 - need.as_nanos() as i64;
        prop_assert!(err.abs() <= 1000, "progress error {err}ns (start={start} need={need} c={c})");
    }

    /// Slice progress is additive over adjacent intervals.
    #[test]
    fn slice_progress_additive(
        t0 in 0u64..50_000,
        d1 in 0u64..50_000,
        d2 in 0u64..50_000,
        cap_pct in 1u32..=100,
    ) {
        let period = SimDuration::from_millis(10);
        let c = cap_pct as f64 / 100.0;
        let a = SimTime::from_micros(t0);
        let b = SimTime::from_micros(t0 + d1);
        let z = SimTime::from_micros(t0 + d1 + d2);
        let whole = slice_progress(a, z, c, period).as_nanos() as i64;
        let split = slice_progress(a, b, c, period).as_nanos() as i64
            + slice_progress(b, z, c, period).as_nanos() as i64;
        prop_assert!((whole - split).abs() <= 2, "additivity violated: {whole} vs {split}");
    }

    /// Fluid completion is exact: elapsed wall time × rate == cpu need.
    #[test]
    fn fluid_finish_exact(need_us in 1u64..1_000_000, rate_pct in 1u32..=100) {
        let rate = rate_pct as f64 / 100.0;
        let start = SimTime::from_millis(3);
        let need = SimDuration::from_micros(need_us);
        let fin = fluid_finish(start, need, rate);
        let wall = fin.duration_since(start).as_nanos() as f64;
        prop_assert!((wall * rate - need.as_nanos() as f64).abs() <= rate * 2.0 + 1.0);
    }

    /// Hypervisor accounting: total CPU time consumed on one PCPU never
    /// exceeds wall time, for arbitrary cap/mode churn.
    #[test]
    fn accounting_bounded_by_wall_time(
        ops in prop::collection::vec((0u8..4, 1u32..=100), 1..40),
    ) {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let a = hv.create_domain("a", 1 << 20, false);
        let b = hv.create_domain("b", 1 << 20, false);
        let va = hv.add_vcpu(a, p, SimTime::ZERO).unwrap();
        let vb = hv.add_vcpu(b, p, SimTime::ZERO).unwrap();
        let mut t = SimTime::ZERO;
        for &(op, val) in &ops {
            t += SimDuration::from_millis(1);
            // Consume any completions first to keep modes consistent.
            let _ = hv.advance(t);
            match op {
                0 => hv.set_cap(a, val % 101, t).unwrap(),
                1 => hv.set_cap(b, val % 101, t).unwrap(),
                2 => hv.set_polling(va, t).unwrap(),
                _ => hv.set_idle(vb, t).unwrap(),
            }
        }
        t += SimDuration::from_millis(5);
        let _ = hv.advance(t);
        let used_a = hv.cpu_time_used(a, t).unwrap();
        let used_b = hv.cpu_time_used(b, t).unwrap();
        let wall = t.duration_since(SimTime::ZERO).as_nanos();
        prop_assert!(
            used_a.as_nanos() + used_b.as_nanos() <= wall + 1000,
            "PCPU oversubscribed: {} + {} > {}",
            used_a,
            used_b,
            wall
        );
    }

    /// The memoized `next_time` always equals a fresh scan of every VCPU's
    /// completion time, under both scheduling models, across arbitrary
    /// job/knob/mode/accounting/advance sequences.
    #[test]
    fn next_time_memo_matches_rescan(
        slice in any::<bool>(),
        ops in prop::collection::vec((0u8..7, 0usize..3, 0u32..5000, 0u64..3000), 1..60),
    ) {
        let model = if slice {
            SchedModel::Slice { period: SimDuration::from_millis(10) }
        } else {
            SchedModel::Fluid
        };
        let mut hv = Hypervisor::new(model);
        let pcpus: Vec<_> = (0..3).map(|_| hv.add_pcpu()).collect();
        let d0 = hv.create_domain("dom0", 1 << 20, true);
        let a = hv.create_domain("a", 1 << 20, false);
        let b = hv.create_domain("b", 1 << 20, false);
        // Domain b owns two VCPUs, so its cap is split by runnable count.
        // The fluid model shares a PCPU; the slice model allows one VCPU
        // per PCPU.
        let placement = if slice { [0, 1, 2] } else { [0, 0, 1] };
        let doms = [a, b, b];
        let vcpus: Vec<_> = doms
            .iter()
            .zip(placement)
            .map(|(&d, p)| hv.add_vcpu(d, pcpus[p], SimTime::ZERO).unwrap())
            .collect();
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        for &(op, who, val, dt_us) in &ops {
            t += SimDuration::from_micros(dt_us);
            let (v, d) = (vcpus[who], [d0, a, b][who]);
            // Errors (a busy VCPU, an over-budget cap) are part of the
            // sequence: they must leave the memo coherent too.
            match op {
                0 => drop(hv.start_job(v, SimDuration::from_micros(u64::from(val) + 1), 7, t)),
                1 => drop(hv.set_cap(d, val % 220, t)),
                2 => drop(hv.set_weight(d, val % 1000, t)),
                3 => drop(hv.set_polling(v, t)),
                4 => drop(hv.set_idle(v, t)),
                5 => drop(hv.cpu_time_used(d, t)),
                _ => hv.advance_into(t, &mut out),
            }
            prop_assert_eq!(hv.next_time(), hv.next_time_uncached(), "after op {} at {}", op, t);
        }
        let end = t + SimDuration::from_secs(1);
        hv.advance_into(end, &mut out);
        prop_assert_eq!(hv.next_time(), hv.next_time_uncached());
    }
}
