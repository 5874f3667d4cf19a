//! One scoped-thread helper for the workspace's data-parallel loops.
//!
//! [`map_on_workers`] is the only place library code spawns threads.
//! It is shared by the cohort runner (record rendering and the
//! per-node uplink), the sharded gateway (one shard's packets per
//! item) and the gateway's solve phase, which the sharded gateway and
//! the archive's solver replay run (one solver thread per item, each
//! pulling CS windows from its own shared cursor). Threads pull work:
//! each takes the next unclaimed item
//! from a shared cursor as soon as it finishes one, so no thread owns
//! a fixed share and uneven item costs even out. It spawns nothing
//! that outlives the call, keeps results in item order, and turns a
//! lost thread into a typed [`WbsnError::WorkerLost`], so callers stay
//! deterministic and panic-free at any worker count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::{Result, WbsnError};

/// Maps `f` over `items` on up to `workers` scoped threads (0 counts
/// as 1), the calling thread included. Each thread claims the next
/// item from a shared cursor, in ascending item order, until none are
/// left. Results come back in item order, and every helper is joined
/// before this returns, so no thread outlives the call. With one
/// worker no thread is spawned and the items run in order.
///
/// The first error in item order wins: once an item fails, threads
/// stop claiming, and every item already claimed finishes. Since
/// claims ascend, every item before the failing one has run. A helper
/// that fails to spawn only costs parallelism — the threads that did
/// start drain the items. A helper that panics loses the items it ran,
/// which become [`WbsnError::WorkerLost`].
///
/// # Errors
///
/// The first `Err` that `f` returns in item order, or
/// [`WbsnError::WorkerLost`] for an item whose result was lost.
pub fn map_on_workers<T, R, F>(workers: usize, items: &mut [T], f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> Result<R> + Sync,
{
    let n = items.len();
    let threads = workers.clamp(1, n.max(1));
    if threads == 1 {
        return items.iter_mut().map(f).collect();
    }
    let cursor = Mutex::new(items.iter_mut().enumerate());
    // Only a hint to stop early: it publishes no data, and ascending
    // claims already guarantee that every item before the first
    // failure runs.
    let failed = AtomicBool::new(false);
    let drain = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            // A poisoned cursor only stops this thread; the items it
            // would have claimed come back as missing results.
            let Some((i, item)) = cursor.lock().ok().and_then(|mut c| c.next()) else {
                break;
            };
            let result = f(item);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .filter_map(|k| Some((k, std::thread::Builder::new().spawn_scoped(s, drain).ok()?)))
            .collect();
        let mut finished = drain();
        let mut lost = None;
        for (k, helper) in helpers {
            match helper.join() {
                Ok(done) => finished.extend(done),
                Err(_) => lost = lost.or(Some(k)),
            }
        }
        let mut slots: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
        for (i, result) in finished {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or(Err(WbsnError::WorkerLost {
                    shard: lost.unwrap_or(0),
                }))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Condvar;
    use std::time::Duration;

    fn fail(at: usize) -> WbsnError {
        WbsnError::InvalidParameter {
            what: "item",
            detail: at.to_string(),
        }
    }

    #[test]
    fn empty_input_maps_to_empty_output() {
        for workers in [0, 1, 4] {
            let mut items: Vec<u32> = Vec::new();
            let out = map_on_workers(workers, &mut items, |&mut v| Ok(v)).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn zero_workers_and_more_workers_than_items_cover_every_item() {
        for workers in [0, 1, 3, 7, 8, 9, 64] {
            let mut items: Vec<usize> = (0..8).collect();
            let out = map_on_workers(workers, &mut items, |v| {
                *v += 100;
                Ok(*v * 2)
            })
            .unwrap();
            let expected: Vec<usize> = (0..8).map(|v| (v + 100) * 2).collect();
            assert_eq!(out, expected, "{workers} workers");
            assert_eq!(items, (100..108).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [2, 3, 5] {
            let mut items: Vec<usize> = (0..37).collect();
            let out = map_on_workers(workers, &mut items, |&mut v| {
                // Earlier items do more work, so later items tend to
                // finish first; the order must not show it.
                let spin = (40 - v) * 2_000;
                let mut acc = v as u64;
                for k in 0..spin as u64 {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                std::hint::black_box(acc);
                Ok(v)
            })
            .unwrap();
            assert_eq!(out, (0..37).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn the_first_error_in_item_order_wins_and_no_item_runs_twice() {
        const N: usize = 23;
        let error_sets: [&[usize]; 6] = [&[], &[0], &[5], &[5, 11], &[11, 3], &[22]];
        for workers in [1, 2, 3, 5, 17] {
            for errors in error_sets {
                let visits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let mut items: Vec<usize> = (0..N).collect();
                let out = map_on_workers(workers, &mut items, |&mut v| {
                    visits[v].fetch_add(1, Ordering::Relaxed);
                    if errors.contains(&v) {
                        Err(fail(v))
                    } else {
                        Ok(v)
                    }
                });
                let visits: Vec<usize> = visits.into_iter().map(AtomicUsize::into_inner).collect();
                let case = format!("{workers} workers, errors at {errors:?}");
                assert!(visits.iter().all(|&n| n <= 1), "{case}: {visits:?}");
                match errors.iter().min() {
                    None => {
                        assert_eq!(out.unwrap(), (0..N).collect::<Vec<_>>(), "{case}");
                        assert!(visits.iter().all(|&n| n == 1), "{case}: {visits:?}");
                    }
                    Some(&first) => {
                        assert_eq!(out.unwrap_err(), fail(first), "{case}");
                        // Claims ascend, so everything before the
                        // first failure ran.
                        assert!(visits[..=first].iter().all(|&n| n == 1), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_items_after_it() {
        // Item 0 waits for every other item. With fixed shares, the
        // items behind it in its thread's share could never run, and
        // it would time out instead.
        const N: usize = 16;
        let ran = Mutex::new(0usize);
        let ran_changed = Condvar::new();
        let mut items: Vec<usize> = (0..N).collect();
        let saw_all = map_on_workers(2, &mut items, |&mut v| {
            let mut ran_so_far = ran.lock().unwrap();
            if v != 0 {
                *ran_so_far += 1;
                ran_changed.notify_all();
                return Ok(true);
            }
            let (ran_so_far, _) = ran_changed
                .wait_timeout_while(ran_so_far, Duration::from_secs(2), |ran| *ran < N - 1)
                .unwrap();
            Ok(*ran_so_far == N - 1)
        })
        .unwrap();
        assert!(saw_all[0], "item 0 timed out waiting for the other items");
    }
}
