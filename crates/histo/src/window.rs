//! Min-of-last-N seek distance tracking (§3.1 of the paper).
//!
//! A single look-behind of 1 cannot recognize *interleaved* sequential
//! streams: with two streams the measured distance is the gap between the
//! streams, not 1. The paper's fix is a circular array of the last `N`
//! I/Os' final blocks; each new I/O records the minimum distance to any of
//! them, so any stream within the window shows up as sequential. `N = 16`
//! by default.

/// Circular look-behind window over the last `N` I/O end positions.
///
/// Positions are logical block numbers (`u64`); distances are signed
/// (`i64`), negative for reverse seeks.
///
/// # Examples
///
/// Two interleaved sequential streams both appear sequential through the
/// window, while the plain last-I/O distance ping-pongs:
///
/// ```
/// use histo::SeekWindow;
///
/// let mut w = SeekWindow::new(16);
/// // Stream A at block ~1000, stream B at block ~900000, interleaved.
/// assert_eq!(w.observe(1000, 8), None); // first I/O: no distance yet
/// w.observe(900_000, 8);
/// let d_a = w.observe(1008, 8).unwrap(); // continues stream A
/// let d_b = w.observe(900_008, 8).unwrap(); // continues stream B
/// assert_eq!(d_a, 1);
/// assert_eq!(d_b, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekWindow {
    /// End positions (last block + 1... see `observe`) of recent I/Os.
    ends: Vec<u64>,
    /// Next slot to overwrite.
    cursor: usize,
    /// Number of valid entries (saturates at capacity).
    filled: usize,
    capacity: usize,
}

impl SeekWindow {
    /// Creates a window remembering the last `capacity` I/Os.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "seek window capacity must be positive");
        SeekWindow {
            ends: vec![0; capacity],
            cursor: 0,
            filled: 0,
            capacity,
        }
    }

    /// The paper's default window size.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Number of I/Os currently remembered.
    #[inline]
    pub fn len(&self) -> usize {
        self.filled
    }

    /// `true` before any I/O has been observed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Observes an I/O starting at logical block `first_block` spanning
    /// `num_blocks` blocks, and returns the signed distance from the
    /// *closest* remembered I/O end to this I/O's start — the value §3.1
    /// inserts into the windowed seek-distance histogram. Returns `None`
    /// for the very first I/O.
    ///
    /// Distance follows the paper's definition: "the number of logical
    /// blocks between the starting block of a request and the last block in
    /// the previous I/O", so a perfectly sequential successor has distance 1.
    /// "Closest" means minimum absolute value; the sign is preserved so
    /// reverse scans remain visible. Saturates at `i64::MIN/MAX` for
    /// pathological virtual disk sizes.
    pub fn observe(&mut self, first_block: u64, num_blocks: u64) -> Option<i64> {
        let min = self.min_distance_to(first_block);
        let last_block = first_block.saturating_add(num_blocks.saturating_sub(1));
        self.push_end(last_block);
        min
    }

    /// The signed min-abs distance from any remembered end to `first_block`
    /// without recording anything.
    pub(crate) fn min_distance_to(&self, first_block: u64) -> Option<i64> {
        self.ends[..self.filled]
            .iter()
            .map(|&end| signed_distance(end, first_block))
            .min_by_key(|d| d.unsigned_abs())
    }

    /// Forgets all remembered I/Os.
    pub fn reset(&mut self) {
        self.filled = 0;
        self.cursor = 0;
    }

    fn push_end(&mut self, last_block: u64) {
        self.ends[self.cursor] = last_block;
        self.cursor = (self.cursor + 1) % self.capacity;
        if self.filled < self.capacity {
            self.filled += 1;
        }
    }

    /// The window's raw state — `(ends, cursor, filled)` — for external
    /// serializers (the checkpoint plane) that need a bit-exact export.
    /// `ends` always has `capacity` slots; slots at or past `filled`
    /// (relative to the ring order) hold stale values that still
    /// participate in equality, so they must round-trip too.
    pub fn to_parts(&self) -> (&[u64], usize, usize) {
        (&self.ends, self.cursor, self.filled)
    }

    /// Rebuilds a window from [`SeekWindow::to_parts`] output.
    ///
    /// # Panics
    ///
    /// Panics if `ends` is empty, or `cursor`/`filled` are out of range
    /// for its length.
    pub fn from_parts(ends: Vec<u64>, cursor: usize, filled: usize) -> Self {
        let capacity = ends.len();
        assert!(capacity > 0, "seek window capacity must be positive");
        assert!(cursor < capacity, "cursor out of range");
        assert!(filled <= capacity, "filled out of range");
        SeekWindow {
            ends,
            cursor,
            filled,
            capacity,
        }
    }
}

/// Signed distance from a previous I/O's last block to the next I/O's first
/// block: `first_block - last_block`, saturating on overflow.
#[inline]
pub fn signed_distance(prev_last_block: u64, next_first_block: u64) -> i64 {
    if next_first_block >= prev_last_block {
        let d = next_first_block - prev_last_block;
        if d > i64::MAX as u64 {
            i64::MAX
        } else {
            d as i64
        }
    } else {
        let d = prev_last_block - next_first_block;
        if d > i64::MAX as u64 {
            i64::MIN
        } else {
            -(d as i64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_io_yields_none() {
        let mut w = SeekWindow::new(4);
        assert_eq!(w.observe(100, 8), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn window_of_one_is_plain_seek_distance() {
        let mut w = SeekWindow::new(1);
        w.observe(0, 8); // blocks 0..=7
        assert_eq!(w.observe(8, 8), Some(1)); // sequential
        assert_eq!(w.observe(15, 1), Some(0)); // same as last block
        assert_eq!(w.observe(0, 1), Some(-15)); // reverse seek
    }

    #[test]
    fn sequential_stream_distance_is_one() {
        let mut w = SeekWindow::new(16);
        w.observe(0, 16);
        for i in 1..100u64 {
            assert_eq!(w.observe(i * 16, 16), Some(1), "i = {i}");
        }
    }

    #[test]
    fn interleaved_streams_look_sequential_with_big_window() {
        let mut w = SeekWindow::new(16);
        let mut a = 0u64;
        let mut b = 1_000_000u64;
        w.observe(a, 8);
        w.observe(b, 8);
        a += 8;
        b += 8;
        for _ in 0..50 {
            assert_eq!(w.observe(a, 8), Some(1));
            assert_eq!(w.observe(b, 8), Some(1));
            a += 8;
            b += 8;
        }
    }

    #[test]
    fn interleaved_streams_break_down_with_window_of_one() {
        let mut w = SeekWindow::new(1);
        let mut a = 0u64;
        let mut b = 1_000_000u64;
        w.observe(a, 8);
        a += 8;
        // Alternate streams: every observed distance is the inter-stream gap.
        let mut big = 0;
        for _ in 0..20 {
            if w.observe(b, 8).unwrap().unsigned_abs() > 100_000 {
                big += 1;
            }
            b += 8;
            if w.observe(a, 8).unwrap().unsigned_abs() > 100_000 {
                big += 1;
            }
            a += 8;
        }
        assert_eq!(big, 40);
    }

    #[test]
    fn eviction_after_capacity() {
        let mut w = SeekWindow::new(2);
        w.observe(0, 1); // ends: [0]
        w.observe(1000, 1); // ends: [0, 1000]
        w.observe(2000, 1); // evicts 0; ends: [1000, 2000]
                            // Distance to 1 should now be measured against 1000, not 0.
        assert_eq!(w.min_distance_to(1001), Some(1));
        assert_eq!(w.min_distance_to(1), Some(-999));
    }

    #[test]
    fn sign_preserved_for_min_abs() {
        let mut w = SeekWindow::new(4);
        w.observe(100, 1); // end: 100
                           // 98 is 2 behind; nothing closer ahead.
        assert_eq!(w.min_distance_to(98), Some(-2));
    }

    #[test]
    fn reset_forgets_history() {
        let mut w = SeekWindow::new(4);
        w.observe(5, 1);
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.observe(1_000, 1), None);
    }

    #[test]
    fn signed_distance_saturation() {
        assert_eq!(signed_distance(0, u64::MAX), i64::MAX);
        assert_eq!(signed_distance(u64::MAX, 0), i64::MIN);
        assert_eq!(signed_distance(7, 7), 0);
        assert_eq!(signed_distance(8, 7), -1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SeekWindow::new(0);
    }
}
