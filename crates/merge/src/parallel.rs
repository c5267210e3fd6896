//! Indexed fan-out shared by the merge and scan engines.
//!
//! All three §4 merges (classic, re-sorting, partial) spend their time in
//! embarrassingly-parallel per-column work: dictionary merge, code
//! translation, and value-index rebuild touch one column at a time and
//! share nothing but the immutable [`MergeInput`](crate::MergeInput) and
//! survivor list. [`map_indexed`] fans that loop out over the calling
//! thread plus a bounded pool of scoped worker threads; the scan engine in
//! `hana-core` reuses the same primitive with row-chunk indexes instead of
//! column indexes.
//!
//! Guarantees:
//!
//! * **Bit-identical results.** Workers claim indexes from an atomic
//!   counter and return `(index, value)` pairs; the caller reassembles the
//!   output strictly in index order, so scheduling cannot influence the
//!   merged structure.
//! * **Graceful serial fallback.** A worker count of 1 (or a single-item
//!   job list) never spawns; and if the OS refuses a thread mid-fan-out,
//!   the scoped-thread layer runs that worker's share inline on the
//!   spawning thread instead of failing the job.
//! * **Panic transparency.** A panicking job propagates to the caller
//!   exactly as it would from the serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested worker count: `0` means "one per logical CPU",
/// anything else is taken literally.
pub fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Compute `f(0), f(1), …, f(arity - 1)` on up to `workers` threads — the
/// caller's and `workers - 1` spawned ones — and return the results in
/// index order.
pub fn map_indexed<T, F>(arity: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(arity);
    if workers <= 1 {
        return (0..arity).map(f).collect();
    }

    // The calling thread is one of the workers: it claims indexes like
    // the spawned ones, so a fan-out spawns `workers - 1` threads (each
    // fresh thread can leave a malloc arena behind).
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= arity {
                break;
            }
            done.push((i, f(i)));
        }
        done
    };
    let scope_result = crossbeam::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(|_| claim())).collect();
        let mut slots: Vec<Option<T>> = (0..arity).map(|_| None).collect();
        let mut place = |pairs: Vec<(usize, T)>| {
            for (i, value) in pairs {
                debug_assert!(slots[i].is_none(), "index claimed once");
                slots[i] = Some(value);
            }
        };
        // A panic here unwinds through the scope, which joins the spawned
        // workers before it propagates.
        place(claim());
        for h in handles {
            match h.join() {
                Ok(pairs) => place(pairs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index was claimed"))
            .collect::<Vec<T>>()
    });
    match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_matches_serial_order() {
        let serial = map_indexed(17, 1, |c| c * c);
        let parallel = map_indexed(17, 4, |c| c * c);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn every_column_computed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_indexed(64, 8, |c| {
            calls.fetch_add(1, Ordering::SeqCst);
            c
        });
        assert_eq!(calls.load(Ordering::SeqCst), 64);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_arities() {
        assert_eq!(map_indexed(0, 8, |c| c), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 8, |c| c + 10), vec![10]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            map_indexed(8, 4, |c| {
                if c == 5 {
                    panic!("column job failed");
                }
                c
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Both jobs wait for each other, so they run on two threads at
        // once: the caller and the one thread a 2-worker fan-out spawns.
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let ran_on = map_indexed(2, 2, |_| {
            both.wait();
            std::thread::current().id()
        });
        assert!(ran_on.contains(&caller));
        assert_ne!(ran_on[0], ran_on[1]);
        let spawned: std::collections::HashSet<_> = map_indexed(64, 4, |_| {
            std::thread::yield_now();
            std::thread::current().id()
        })
        .into_iter()
        .filter(|&id| id != caller)
        .collect();
        assert!(spawned.len() <= 3);
    }

    #[test]
    fn auto_workers_positive() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }
}
