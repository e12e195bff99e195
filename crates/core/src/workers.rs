//! Scoped workers: one job on `threads` threads, one of them the caller.
//!
//! Lives here (alongside [`crc32`](crate::crc32) and
//! [`varint`](crate::varint)) because this crate is the lowest one both of
//! its callers reach: `tracestore`'s query scan and `fleet`'s poll round
//! share work out the same way — independent items behind a claim point,
//! every worker running the same closure until nothing is left to claim.

#![forbid(unsafe_code)]

/// Runs `work` on `threads` workers — `threads - 1` scoped threads plus
/// the calling thread — and returns every worker's result, the caller's
/// first. With `threads <= 1` nothing is spawned: one worker *is* the
/// serial path.
///
/// # Panics
///
/// A worker's panic is re-raised on the caller with its own payload, once
/// every worker has stopped: the message and location printed are the
/// worker's, not a "worker panicked" stand-in.
pub fn run_workers<R: Send>(threads: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(&work)).collect();
        let mut results = vec![work()];
        results.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn one_worker_is_the_calling_thread() {
        let caller = thread::current().id();
        for threads in [0, 1] {
            assert_eq!(run_workers(threads, || thread::current().id()), [caller]);
        }
    }

    #[test]
    fn every_worker_runs_and_the_caller_is_one_of_them() {
        let ids = run_workers(3, || thread::current().id());
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], thread::current().id());
        assert!(ids[1] != ids[0] && ids[2] != ids[0] && ids[1] != ids[2]);
    }

    #[test]
    #[should_panic(expected = "worker 1 of 2 says so")]
    fn a_spawned_workers_panic_keeps_its_message() {
        let caller = thread::current().id();
        run_workers(2, || {
            assert!(thread::current().id() == caller, "worker 1 of 2 says so");
        });
    }
}
