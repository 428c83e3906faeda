//! The event loop's wait as a pure function: one row per arm.

use std::time::{Duration, Instant};

use crate::session::{loop_timeout, Phase};

#[test]
fn the_loop_sleeps_until_its_phase_steps_or_a_parked_commit_is_due() {
    let now = Instant::now();
    let ms = Duration::from_millis;
    let drain = |soft| Phase::Drain { soft: now + soft, hard: now + ms(5_000) };
    let flush = |left| Phase::Flush { deadline: now + left };
    let past = now.checked_sub(ms(3));
    #[rustfmt::skip]
    let rows = [
        // (what, phase, a request waits for a worker, parked commit due, sleep)
        ("idle: until an event",      Phase::Running, false, None,                None),
        ("worker wait: 1 ms tick",    Phase::Running, true,  None,                Some(ms(1))),
        ("a parked commit is due",    Phase::Running, false, Some(now + ms(40)),  Some(ms(40))),
        ("due before the tick",       Phase::Running, true,  Some(now),           Some(ms(0))),
        ("due already past",          Phase::Running, false, past,                Some(ms(0))),
        ("drain: 25 ms at most",      drain(ms(300)), false, None,                Some(ms(25))),
        ("drain: 1 ms at least",      drain(ms(0)),   false, None,                Some(ms(1))),
        ("drain: due first",          drain(ms(300)), false, Some(now + ms(7)),   Some(ms(7))),
        ("flush: to its deadline",    flush(ms(60)),  false, None,                Some(ms(60))),
        ("flush: 100 ms at most",     flush(ms(500)), false, None,                Some(ms(100))),
        ("flush: due first",          flush(ms(500)), false, Some(now + ms(30)),  Some(ms(30))),
    ];
    for (what, phase, run_queue_waiting, due, want) in rows {
        assert_eq!(loop_timeout(now, &phase, run_queue_waiting, due), want, "{what}");
    }
}
