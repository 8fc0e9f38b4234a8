//! One scoped-thread fan-out for the row passes of a cold boot.
//!
//! Generating, labelling and indexing a large table are each one pass
//! over its rows, split into independent items (a chunk of rows, a
//! range of bitmap words). [`fan_out`] runs such items on the calling
//! thread plus up to `workers − 1` scoped threads that pull them from
//! one shared queue, so a slow item never idles the other threads, and
//! returns each item's result in item order. What an item computes
//! must not depend on which thread runs it; then the outcome does not
//! depend on the worker count either.
//!
//! A pass of fewer than [`FANOUT_MIN_ROWS`] rows runs on the calling
//! thread alone. Generation and labelling cut a small table into one
//! item anyway; the cutoff matters for the index build
//! (`lewis_index::TableIndex::build`), which has an item per shard and
//! attribute however few the rows. Timed on a 2-vCPU Intel Xeon
//! (medians of 300 one-shard builds of a German-syn table), spawning a
//! worker doubled a 1,000-row build (22 → 44 µs), broke even at 4,000
//! rows and won from 8,000 rows on (80–114 → 73–87 µs; at 48,000 rows
//! 417–620 → 279–327 µs). So the paper's German (1,000 rows), Drug
//! (1,886) and COMPAS (5,200) tables index on one thread, while
//! German-syn (10,000), Adult (48,000) and larger tables fan out.
//!
//! ```
//! use tabular::fanout::{fan_out, FANOUT_MIN_ROWS};
//!
//! let rows = FANOUT_MIN_ROWS;
//! let items: Vec<std::ops::Range<u64>> = (0..4).map(|i| i * 100..(i + 1) * 100).collect();
//! let sums = fan_out(3, rows, items, |r| r.sum::<u64>());
//! assert_eq!(sums, [4950, 14950, 24950, 34950]);
//! ```

use std::sync::{Mutex, PoisonError};

/// Below this many rows a fan-out runs on the calling thread alone:
/// the measured crossover of the index build (see the module docs).
pub const FANOUT_MIN_ROWS: usize = 8_192;

/// Rows per item of a row-range fan-out: a multiple of 64, so an item
/// covers whole bitmap words, and small enough that two workers split a
/// 200k-row table evenly.
pub const ITEM_ROWS: usize = 16_384;

/// Threads a fan-out may use: one per core the OS grants this process.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run `work` on every item of a `rows`-row pass and return the results
/// in item order. The calling thread works too; at most `workers − 1`
/// (and one fewer than the items) scoped threads join it when `rows`
/// reaches [`FANOUT_MIN_ROWS`]. A thread the OS refuses leaves its
/// items to the others.
pub fn fan_out<T, R, F>(workers: usize, rows: usize, items: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = match rows {
        0..FANOUT_MIN_ROWS => 1,
        _ => workers.clamp(1, items.len().max(1)),
    };
    if workers == 1 {
        return items.into_iter().map(work).collect();
    }
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let queue = Mutex::new(items.into_iter().zip(slots.iter_mut()));
    let drain = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((item, slot)) = next else { break };
        *slot = Some(work(item));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let _ = std::thread::Builder::new().spawn_scoped(scope, drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the calling thread drains the queue"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_item_order_on_any_worker_count() {
        for workers in 0..=3 {
            for n_items in [0, 1, 2, 7] {
                let out = fan_out(workers, FANOUT_MIN_ROWS, (0..n_items).collect(), |i| i * 10);
                assert_eq!(out, (0..n_items).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    /// Whether item 0 of a two-item fan-out saw item 1 run while it
    /// waited `wait` for it: only a second thread can run item 1 then.
    fn ran_at_once(workers: usize, rows: usize, wait: Duration) -> bool {
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let met = fan_out(workers, rows, vec![0, 1], |i| match i {
            0 => rx.lock().unwrap().recv_timeout(wait).is_ok(),
            _ => tx.lock().unwrap().send(()).is_ok(),
        });
        met[0]
    }

    #[test]
    fn a_large_pass_runs_its_items_on_two_threads_at_once() {
        assert!(ran_at_once(2, FANOUT_MIN_ROWS, Duration::from_secs(10)));
    }

    #[test]
    fn small_passes_one_worker_and_single_items_stay_on_the_calling_thread() {
        let wait = Duration::from_millis(50);
        assert!(!ran_at_once(3, FANOUT_MIN_ROWS - 1, wait));
        assert!(!ran_at_once(1, usize::MAX, wait));
        assert!(!ran_at_once(0, usize::MAX, wait));
        let caller = std::thread::current().id();
        let ran_on = fan_out(3, usize::MAX, vec![()], |()| std::thread::current().id());
        assert_eq!(ran_on, [caller]);
    }
}
