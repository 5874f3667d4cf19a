//! One scoped-thread helper for the workspace's data-parallel loops.
//!
//! [`map_on_workers`] is shared by the cohort runner (record rendering
//! and the per-node uplink) and the archive's solver replay (one
//! session's window stream per item). It spawns nothing that outlives
//! the call, keeps results in item order, and turns a lost thread into
//! a typed [`WbsnError::WorkerLost`], so callers stay deterministic and
//! panic-free at any worker count.

use crate::{Result, WbsnError};

/// Maps `f` over `items` on up to `workers` scoped threads: the
/// calling thread takes the first contiguous chunk and one helper
/// thread takes each further chunk. Results come back in item order,
/// and every helper is joined before this returns, so no thread
/// outlives the call. The first error in item order wins; a helper
/// that fails to spawn or panics becomes [`WbsnError::WorkerLost`]
/// (its chunk index as the shard).
///
/// # Errors
///
/// The first `Err` that `f` returns in item order, or
/// [`WbsnError::WorkerLost`] for a chunk whose thread was lost.
pub fn map_on_workers<T, R, F>(workers: usize, items: &mut [T], f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> Result<R> + Sync,
{
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    let run = |part: &mut [T]| part.iter_mut().map(&f).collect::<Result<Vec<R>>>();
    std::thread::scope(|s| {
        let mut parts = items.chunks_mut(chunk);
        let head = parts.next();
        let helpers: Vec<_> = parts
            .map(|part| std::thread::Builder::new().spawn_scoped(s, move || run(part)))
            .collect();
        let mut out = head.map_or_else(|| Ok(Vec::new()), run);
        for (i, helper) in helpers.into_iter().enumerate() {
            let lost = || WbsnError::WorkerLost { shard: i + 1 };
            let part = helper
                .map_err(|_| lost())
                .and_then(|handle| handle.join().map_err(|_| lost())?);
            out = out.and_then(|mut acc| {
                acc.extend(part?);
                Ok(acc)
            });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                // Earlier chunks do more work, so later chunks tend to
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
    fn the_first_failing_chunk_in_item_order_wins() {
        // 4 workers over 8 items: chunks {0,1} {2,3} {4,5} {6,7}. Chunks
        // 2 and 3 (items 4 and 6) both fail; chunk 2's error comes back.
        let mut items: Vec<usize> = (0..8).collect();
        let err = map_on_workers(4, &mut items, |&mut v| {
            if v == 4 || v == 6 {
                Err(fail(v))
            } else {
                Ok(v)
            }
        })
        .unwrap_err();
        assert_eq!(err, fail(4));
    }
}
