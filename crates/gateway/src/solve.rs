//! The solve phase: every CS window of a call, solved together.
//!
//! Decoding a packet or a flush is cheap; solving the CS windows it
//! releases is not. So the gateway decodes first and queues each
//! window's solve as a job — its sensing matrix, the Lipschitz constant
//! FISTA steps by, and its measurements — in a [`SolvePhase`]. One
//! [`SolvePhase::run`] then solves the whole queue: the jobs are sorted
//! by matrix, and up to `workers` threads of
//! [`map_on_workers`] each take windows of one matrix from a shared
//! cursor, one at a time, into the lanes of
//! [`Fista::solve_stream`], refilling a lane the iteration its window
//! stops. The results come back in push order, each bit for bit the
//! [`Fista::solve_with`] of its window alone, so neither the lane a
//! window ran in nor the thread that ran it shows in any output.
//!
//! [`ShardedGateway`](crate::ShardedGateway) gathers every shard's
//! queue into one pool-wide phase per call, and the archive's solver
//! replay queues a whole recording, so the lanes stay full however the
//! windows are spread over sessions.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wbsn_core::workers::map_on_workers;
use wbsn_core::WbsnError;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch, FistaSolve};
use wbsn_cs::CsError;

use crate::Result;

/// One queued window.
#[derive(Debug)]
struct Job {
    encoder: Arc<CsEncoder>,
    lipschitz: f64,
    /// The window's measurements in [`SolvePhase::ys`].
    y: Range<usize>,
}

impl Job {
    /// Jobs with the same key share Φ and the step; the key orders the
    /// queue so they sit together.
    fn key(&self) -> (u64, usize, usize, u64) {
        (
            self.encoder.seed(),
            self.encoder.measurements(),
            self.encoder.window_len(),
            self.lipschitz.to_bits(),
        )
    }

    /// Whether two jobs can run in lanes of one stream.
    fn shares_stream(&self, other: &Job) -> bool {
        Arc::ptr_eq(&self.encoder, &other.encoder)
            && self.lipschitz.to_bits() == other.lipschitz.to_bits()
    }
}

/// One solver thread's working memory and results, kept across runs.
#[derive(Debug, Default)]
struct Worker {
    scratch: FistaScratch,
    done: Vec<(usize, std::result::Result<FistaSolve, CsError>)>,
}

/// A queue of CS windows to solve, and the working memory that solves
/// them (see the module docs). Warm, a run allocates only the samples
/// it returns.
#[derive(Debug)]
pub struct SolvePhase {
    solver: Fista,
    jobs: Vec<Job>,
    /// Every queued window's measurements, back to back.
    ys: Vec<f64>,
    /// Job indices sorted by matrix, then by push order.
    order: Vec<usize>,
    /// For each position of `order`, the end of its stream.
    ends: Vec<usize>,
    workers: Vec<Worker>,
    results: Vec<Option<std::result::Result<FistaSolve, CsError>>>,
}

impl SolvePhase {
    /// An empty phase that solves with `cfg`.
    pub fn new(cfg: FistaConfig) -> Self {
        SolvePhase {
            solver: Fista::new(cfg),
            jobs: Vec::new(),
            ys: Vec::new(),
            order: Vec::new(),
            ends: Vec::new(),
            workers: Vec::new(),
            results: Vec::new(),
        }
    }

    /// The solver the phase runs.
    pub fn solver(&self) -> &Fista {
        &self.solver
    }

    /// Whether no window is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues one window: `measurements` through `encoder`'s Φ,
    /// stepping by `lipschitz`. Results come back in push order.
    ///
    /// # Errors
    ///
    /// What [`Fista::check_input`] finds wrong with the window (a
    /// measurement count that does not match Φ, say); the window is
    /// then not queued.
    pub fn push(
        &mut self,
        encoder: &Arc<CsEncoder>,
        lipschitz: f64,
        measurements: impl IntoIterator<Item = f64>,
    ) -> Result<()> {
        let start = self.ys.len();
        self.ys.extend(measurements);
        if let Err(e) =
            self.solver
                .check_input(encoder.sensing_matrix(), &self.ys[start..], lipschitz)
        {
            self.ys.truncate(start);
            return Err(e.into());
        }
        self.jobs.push(Job {
            encoder: Arc::clone(encoder),
            lipschitz,
            y: start..self.ys.len(),
        });
        Ok(())
    }

    /// Drops every queued window unsolved.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.ys.clear();
    }

    /// Moves every window queued in `other` to the end of this queue,
    /// in order.
    pub fn append(&mut self, other: &mut SolvePhase) {
        let offset = self.ys.len();
        self.ys.append(&mut other.ys);
        self.jobs.extend(other.jobs.drain(..).map(|job| Job {
            y: job.y.start + offset..job.y.end + offset,
            ..job
        }));
    }

    /// Solves every queued window on up to `workers` threads (0 counts
    /// as 1) and empties the queue. Yields one result per window, in
    /// push order: the samples and iteration count
    /// [`Fista::solve_with`] returns for it, bit for bit, at any worker
    /// count. A window whose thread was lost yields
    /// [`WbsnError::WorkerLost`].
    pub fn run(&mut self, workers: usize) -> impl Iterator<Item = Result<FistaSolve>> + '_ {
        let SolvePhase {
            solver,
            jobs,
            ys,
            order,
            ends,
            workers: slots,
            results,
        } = self;
        let n = jobs.len();
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by_key(|&j| (jobs[j].key(), j));
        ends.clear();
        ends.resize(n, n);
        for p in (0..n.saturating_sub(1)).rev() {
            if jobs[order[p]].shares_stream(&jobs[order[p + 1]]) {
                ends[p] = ends[p + 1];
            } else {
                ends[p] = p + 1;
            }
        }
        let threads = workers.clamp(1, n.max(1));
        if slots.len() < threads {
            slots.resize_with(threads, Worker::default);
        }
        let queue = Queue {
            jobs,
            ys,
            order,
            ends,
            cursor: AtomicUsize::new(0),
        };
        let lost = if n == 0 {
            None
        } else {
            map_on_workers(threads, &mut slots[..threads], |worker| {
                queue.work(solver, worker);
                Ok(())
            })
            .err()
        };
        results.clear();
        results.resize_with(n, || None);
        for worker in &mut slots[..threads] {
            for (j, solve) in worker.done.drain(..) {
                if let Some(slot) = results.get_mut(j) {
                    *slot = Some(solve);
                }
            }
        }
        jobs.clear();
        ys.clear();
        results.drain(..).map(move |solve| match solve {
            Some(solve) => solve.map_err(WbsnError::from),
            None => Err(lost.clone().unwrap_or(WbsnError::WorkerLost { shard: 0 })),
        })
    }
}

/// What the solver threads of one run share.
struct Queue<'a> {
    jobs: &'a [Job],
    ys: &'a [f64],
    order: &'a [usize],
    ends: &'a [usize],
    /// The next position of `order` to hand out.
    cursor: AtomicUsize,
}

impl Queue<'_> {
    /// Claims the next position of `order` below `end`.
    fn claim(&self, end: usize) -> Option<usize> {
        // Relaxed: the queue is written before the threads start, and
        // the cursor publishes nothing else.
        self.cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < end).then_some(c + 1)
            })
            .ok()
    }

    /// One solver thread: claims the next window, then streams the
    /// windows of the same matrix after it through the lanes, until the
    /// queue is empty.
    fn work(&self, solver: &Fista, worker: &mut Worker) {
        let Worker { scratch, done } = worker;
        while let Some(first) = self.claim(self.order.len()) {
            let end = self.ends[first];
            let job = &self.jobs[self.order[first]];
            let mut first = Some(first);
            solver.solve_stream(
                scratch,
                job.encoder.sensing_matrix(),
                job.lipschitz,
                || {
                    let p = first.take().or_else(|| self.claim(end))?;
                    let j = self.order[p];
                    Some((j, &self.ys[self.jobs[j].y.clone()], end - p - 1))
                },
                |j, solve| done.push((j, solve)),
            );
        }
    }
}
