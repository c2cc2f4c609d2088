//! A `join` caller that parked waiting for its stolen job must still help
//! with work pushed after it parked. This binary runs a
//! 2-wide pool (one worker plus the calling test thread), so the caller is
//! the only other thread that can take the stolen job's nested work.

use rayon::prelude::*;
use std::thread;
use std::time::Duration;

#[test]
fn parked_join_caller_helps_with_later_pushes() {
    if std::env::var("RESEX_THREADS").is_err() {
        assert!(rayon::set_num_threads(2), "pool already started");
    }
    if rayon::current_num_threads() != 2 {
        return; // one core, or an explicit width other than 2
    }
    let caller = thread::current().id();
    let ((), ran_on) = rayon::join(
        // Long enough for the worker to steal the second half.
        || thread::sleep(Duration::from_millis(5)),
        || {
            // Long enough for the caller to run out of spinning and park.
            thread::sleep(Duration::from_millis(20));
            let ids: Vec<thread::ThreadId> = (0..32)
                .into_par_iter()
                .map(|_| {
                    thread::sleep(Duration::from_millis(1));
                    thread::current().id()
                })
                .collect();
            ids
        },
    );
    assert!(
        ran_on.contains(&caller),
        "the parked caller took none of the work pushed while it waited"
    );
}
