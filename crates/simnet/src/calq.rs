//! A deterministic calendar queue (bucketed timer wheel) for event times.
//!
//! Classic binary heaps pay `O(log n)` per operation and — more importantly
//! for this codebase — interleave poorly with the lazy-invalidation scheme
//! the fluid network uses for completion predictions (a heap cannot cheaply
//! drop entries that became stale). A calendar queue [Brown 1988] hashes
//! each entry into a bucket by `time >> shift` (bucket width `2^shift` ns)
//! and finds the minimum by walking days from a monotone cursor, giving
//! amortized `O(1)` push/pop for the near-sorted, mostly-monotone event
//! streams a discrete-event simulator produces.
//!
//! Determinism: ties are broken by insertion order (an internal sequence
//! stamp), so two runs performing the same pushes pop the same entries in
//! the same order regardless of bucket layout or resize history. Nothing in
//! the structure depends on addresses, hashing randomness, or wall time.
//!
//! Entries far beyond the current one-year horizon (`nbuckets` days) are
//! parked in an overflow list and migrated into the wheel as the cursor
//! approaches them, so a single far-future watchdog timer cannot degrade
//! the common case.
//!
//! Memory follows occupancy. A layout change (growth, compaction, shrink)
//! releases the storage a bucket kept from an earlier, fuller layout, and
//! the wheel shrinks once occupancy falls far below its bucket count, so a
//! burst does not pin its high-water memory for the rest of the run.

/// One queued entry: an absolute time in nanoseconds, the insertion stamp
/// used for deterministic tie-breaks, and the caller's payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

// Buckets are binary heaps, so a degenerate bucket (thousands of entries at
// one instant — e.g. a barrier activating a whole cluster's flows at the
// same nanosecond) costs `O(log n)` per pop instead of a linear rescan.
// Ordering is *reversed* on `(at, seq)` — `seq` is unique, so this is a
// total order and `BinaryHeap`'s max is the earliest entry — and ignores
// the payload entirely.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic calendar queue keyed by `u64` nanosecond timestamps.
///
/// # Example
/// ```
/// use aiacc_simnet::CalendarQueue;
/// let mut q = CalendarQueue::new();
/// q.push(50, "b");
/// q.push(10, "a");
/// q.push(50, "c"); // same instant as "b": FIFO by insertion
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((50, "b")));
/// assert_eq!(q.pop(), Some((50, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// The wheel: `buckets.len()` is a power of two; an entry with day
    /// `d = at >> shift` inside the horizon lives in `buckets[d & mask]`,
    /// a min-on-`(at, seq)` heap (see the reversed [`Ord`] on [`Entry`]).
    buckets: Vec<std::collections::BinaryHeap<Entry<T>>>,
    /// Entries at or beyond the horizon when they were pushed, as a
    /// min-on-`(at, seq)` heap: migration pops only the eligible prefix
    /// instead of rescanning the whole overflow set.
    far: std::collections::BinaryHeap<Entry<T>>,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Search cursor: no *near* entry sits below this day once the scan has
    /// passed it (pushes behind the cursor move it back).
    day: u64,
    /// Entries currently in the wheel (not counting `far`).
    near: usize,
    /// Total entries.
    len: usize,
    /// Monotone insertion stamp for deterministic ties.
    seq: u64,
    /// Pops since the last layout change: a shrink waits for at least one
    /// per bucket, which pays for the rebuild and keeps bursty loads from
    /// rebuilding every phase.
    pops: usize,
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| std::collections::BinaryHeap::new()).collect(),
            far: std::collections::BinaryHeap::new(),
            // ~1 ms buckets until the first rebuild observes the real
            // inter-event spacing.
            shift: 20,
            day: 0,
            near: 0,
            len: 0,
            seq: 0,
            pops: 0,
        }
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue::default()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    /// The first day at or past the wheel's current one-year window.
    fn horizon(&self) -> u64 {
        self.day.saturating_add(self.buckets.len() as u64)
    }

    /// Day of the earliest parked overflow entry (`u64::MAX` when none);
    /// `at → day` is monotone, so the heap minimum is also the day minimum.
    fn far_min_day(&self) -> u64 {
        self.far.peek().map_or(u64::MAX, |e| e.at >> self.shift)
    }

    /// Inserts `item` at absolute time `at` (nanoseconds).
    pub fn push(&mut self, at: u64, item: T) {
        self.seq += 1;
        self.push_stamped(at, self.seq, item);
    }

    /// Reserves `n` consecutive insertion stamps, as if `n` entries had been
    /// pushed, and returns the first. Hand them to
    /// [`Self::push_stamped`] later to queue entries lazily that sort
    /// exactly where eager pushes would have.
    pub fn reserve_stamps(&mut self, n: u64) -> u64 {
        let first = self.seq + 1;
        self.seq += n;
        first
    }

    /// Inserts `item` at time `at` with a stamp from
    /// [`Self::reserve_stamps`]: it pops in `(at, seq)` order among the
    /// queued entries. Each reserved stamp must be used at most once.
    pub fn push_stamped(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(seq <= self.seq, "stamp {seq} was never reserved");
        let entry = Entry { at, seq, item };
        let day = at >> self.shift;
        // A push behind the cursor (legal: "complete now" entries issued
        // while the cursor peeked ahead) moves the cursor back so the next
        // scan starts early enough to see it.
        if day < self.day {
            self.day = day;
        }
        if day < self.horizon() {
            let idx = (day & self.mask()) as usize;
            self.buckets[idx].push(entry);
            self.near += 1;
        } else {
            self.far.push(entry);
        }
        self.len += 1;
        if self.len > self.buckets.len() * 8 + 64 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Moves overflow entries that now fall inside the window into the
    /// wheel. Only the eligible prefix of the overflow heap is touched, so
    /// a deep backlog of genuinely-far entries costs nothing per call.
    fn migrate_far(&mut self) {
        let horizon = self.horizon();
        let mask = self.mask();
        while let Some(e) = self.far.peek() {
            let day = e.at >> self.shift;
            if day >= horizon {
                break;
            }
            let e = self.far.pop().expect("peeked entry exists");
            self.buckets[(day & mask) as usize].push(e);
            self.near += 1;
        }
    }

    /// Locates the bucket holding the minimum entry (by `(at, seq)`),
    /// advancing the cursor. The winner is the bucket's heap top.
    fn find_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.far_min_day() < self.horizon() {
                self.migrate_far();
            }
            if self.near == 0 {
                // Everything left is far in the future: jump the cursor there.
                self.day = self.far_min_day();
                self.migrate_far();
            }
            let b = self.scan_near().expect("near entries exist");
            // The candidate is the minimum *near* entry, but a parked far
            // entry can still precede (or tie) it: a backwards cursor pull
            // shrinks the window the far entries were judged against, and
            // `scan_all` may then leapfrog the cursor past `far_min_day`.
            // Migrate and rescan until the winner strictly precedes
            // everything still parked.
            let cday = self.buckets[b].peek().expect("winning bucket non-empty").at >> self.shift;
            if self.far_min_day() <= cday {
                self.day = self.far_min_day();
                self.migrate_far();
                continue;
            }
            return Some(b);
        }
    }

    /// Minimum *near* entry by `(at, seq)`: a year scan from the cursor with
    /// a full-scan fallback. Repositions the cursor on the winning day.
    fn scan_near(&mut self) -> Option<usize> {
        let nb = self.buckets.len() as u64;
        let mask = self.mask();
        for d in self.day..self.day.saturating_add(nb) {
            let b = (d & mask) as usize;
            if let Some(e) = self.buckets[b].peek() {
                // The heap top is the bucket's earliest entry, and no near
                // entry sits below the cursor (pushes behind it roll it
                // back), so a day mismatch means this bucket currently
                // holds only later years — skip it whole.
                if e.at >> self.shift == d {
                    self.day = d;
                    return Some(b);
                }
            }
        }
        // The cursor was pulled backwards past entries that were bucketed
        // under an older window (rare): fall back to a full scan.
        self.scan_all()
    }

    /// Full scan over every bucket top for the global minimum; repositions
    /// the cursor on its day.
    fn scan_all(&mut self) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.peek() {
                let better = match best {
                    None => true,
                    Some((_, at, seq)) => (e.at, e.seq) < (at, seq),
                };
                if better {
                    best = Some((b, e.at, e.seq));
                }
            }
        }
        best.map(|(b, at, _)| {
            self.day = at >> self.shift;
            b
        })
    }

    /// The earliest queued time, without removing the entry.
    pub fn peek_time(&mut self) -> Option<u64> {
        let b = self.find_min()?;
        Some(self.buckets[b].peek().expect("winning bucket non-empty").at)
    }

    /// The earliest entry's time and payload, without removing it.
    pub fn peek(&mut self) -> Option<(u64, &T)> {
        let b = self.find_min()?;
        let e = self.buckets[b].peek().expect("winning bucket non-empty");
        Some((e.at, &e.item))
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let b = self.find_min()?;
        Some(self.take(b))
    }

    /// Removes and returns the earliest entry iff its time is `<= t`.
    #[inline]
    pub fn pop_due(&mut self, t: u64) -> Option<(u64, T)> {
        let b = self.find_min()?;
        if self.buckets[b].peek().expect("winning bucket non-empty").at > t {
            return None;
        }
        Some(self.take(b))
    }

    /// Removes the top of bucket `b` (the minimum), then shrinks the wheel
    /// if occupancy has fallen below a quarter of its buckets for at least
    /// one pop per bucket.
    #[inline]
    fn take(&mut self, b: usize) -> (u64, T) {
        let e = self.buckets[b].pop().expect("winning bucket non-empty");
        self.near -= 1;
        self.len -= 1;
        self.pops += 1;
        let nb = self.buckets.len();
        if self.len * 4 < nb && self.pops >= nb && nb > MIN_BUCKETS {
            self.shrink();
        }
        (e.at, e.item)
    }

    /// Out of line and cold: keeping the rebuild out of [`Self::take`]
    /// keeps every pop small enough to inline into the event loops.
    #[cold]
    #[inline(never)]
    fn shrink(&mut self) {
        self.rebuild();
    }

    /// Keeps only entries whose payload satisfies `f`, preserving each
    /// survivor's time and insertion stamp (tie order is unchanged). Used to
    /// compact lazily-invalidated entries in one `O(n)` pass.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.extend(bucket.drain().filter(|e| f(&e.item)));
        }
        all.extend(self.far.drain().filter(|e| f(&e.item)));
        self.reload(all);
    }

    /// Recomputes bucket width/count from the current population and
    /// redistributes every entry. Amortized against the pushes that grew
    /// the queue past its trigger.
    fn rebuild(&mut self) {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.extend(bucket.drain());
        }
        all.extend(self.far.drain());
        self.reload(all);
    }

    /// Rebuilds the wheel around `all` (parameters chosen from its spread),
    /// sized to `all.len()`, and releases the storage a heap kept from an
    /// earlier, fuller layout.
    fn reload(&mut self, all: Vec<Entry<T>>) {
        self.len = all.len();
        self.near = 0;
        self.pops = 0;
        self.far.clear();
        if all.is_empty() {
            *self =
                CalendarQueue { shift: self.shift, day: self.day, seq: self.seq, ..Self::new() };
            return;
        }
        // Bucket width ~ the typical inter-event gap, from a sorted sample
        // of times with the top decile dropped (far-future watchdogs would
        // otherwise stretch every bucket).
        let mut times: Vec<u64> = all.iter().map(|e| e.at).collect();
        times.sort_unstable();
        let lo = times[0];
        let hi = times[times.len() - times.len() / 10 - 1];
        let span = hi.saturating_sub(lo).max(1);
        let want = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Bucket width: at least the mean inter-entry gap (so the cursor
        // scan stays short), then widened until the wheel's window covers
        // the trimmed span — buckets are heaps, so holding several entries
        // is cheap, while a window narrower than the population would park
        // the typical push in the overflow heap and pay three heap
        // operations per entry instead of one.
        let gap = (span / times.len() as u64).max(1);
        let mut shift = (63 - gap.leading_zeros()).clamp(6, 42);
        while shift < 42 && (span >> shift) >= want as u64 {
            shift += 1;
        }
        self.shift = shift;
        // Heaps that stay in the wheel keep their storage for the
        // redistribution below; `release_slack` then trims what is left.
        self.buckets.truncate(want);
        self.buckets.resize_with(want, std::collections::BinaryHeap::new);
        self.buckets.shrink_to_fit();
        for b in &mut self.buckets {
            b.clear();
        }
        self.day = lo >> self.shift;
        let horizon = self.horizon();
        let mask = self.mask();
        for e in all {
            let day = e.at >> self.shift;
            if day < horizon {
                self.buckets[(day & mask) as usize].push(e);
                self.near += 1;
            } else {
                self.far.push(e);
            }
        }
        release_slack(&mut self.buckets);
        release_slack(std::slice::from_mut(&mut self.far));
    }
}

/// Shrinks every heap holding more than twice its entries plus a small
/// constant back to its entries, so the summed capacity stays within
/// `2·len + 4·heaps`. Heaps already inside that bound keep their storage:
/// reallocating them would buy no memory and cost a `malloc` on the next
/// push.
fn release_slack<T>(heaps: &mut [std::collections::BinaryHeap<Entry<T>>]) {
    for h in heaps {
        if h.capacity() > 2 * h.len() + 4 {
            h.shrink_to(h.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.push(30, 1u32);
        q.push(10, 2);
        q.push(30, 3);
        q.push(20, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 2), (20, 4), (30, 1), (30, 3)]);
    }

    #[test]
    fn matches_a_reference_heap_on_mixed_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        // Deterministic pseudo-random pushes over a wide time range,
        // interleaved with pops (monotone, as the simulator drives it).
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = now + (x >> 40); // up to ~16.7M ns ahead
            seq += 1;
            q.push(at, seq);
            heap.push(Reverse((at, seq)));
            if round % 3 == 0 {
                let got = q.pop();
                let want = heap.pop().map(|Reverse(p)| p);
                assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        while let Some(Reverse((at, s))) = heap.pop() {
            assert_eq!(q.pop(), Some((at, s)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_survive_migration() {
        let mut q = CalendarQueue::new();
        q.push(u64::MAX - 1, "watchdog");
        q.push(100, "soon");
        assert_eq!(q.pop(), Some((100, "soon")));
        assert_eq!(q.peek_time(), Some(u64::MAX - 1));
        assert_eq!(q.pop(), Some((u64::MAX - 1, "watchdog")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = CalendarQueue::new();
        q.push(5, 'a');
        q.push(15, 'b');
        assert_eq!(q.pop_due(10), Some((5, 'a')));
        assert_eq!(q.pop_due(10), None);
        assert_eq!(q.pop_due(20), Some((15, 'b')));
    }

    #[test]
    fn retain_preserves_time_and_tie_order() {
        let mut q = CalendarQueue::new();
        for i in 0..100u32 {
            q.push(7, i); // all at the same instant
        }
        q.retain(|&i| i % 3 == 0);
        let mut prev = None;
        while let Some((at, i)) = q.pop() {
            assert_eq!(at, 7);
            assert_eq!(i % 3, 0);
            if let Some(p) = prev {
                assert!(i > p, "tie order disturbed: {i} after {p}");
            }
            prev = Some(i);
        }
    }

    #[test]
    fn rebuild_keeps_every_entry() {
        let mut q = CalendarQueue::new();
        for i in 0..5000u64 {
            q.push(i * 1000, i);
        }
        assert_eq!(q.len(), 5000);
        for i in 0..5000u64 {
            assert_eq!(q.pop(), Some((i * 1000, i)));
        }
    }

    #[test]
    fn far_entry_between_rolled_back_window_and_near_min_wins() {
        const DAY: u64 = 1 << 20; // default bucket width
        let mut q = CalendarQueue::new();
        q.push(996 * DAY, "a");
        assert_eq!(q.peek_time(), Some(996 * DAY)); // cursor jumps to day 996
        q.push(1012 * DAY, "b"); // exactly on the horizon: parked far
        q.push(1010 * DAY, "d"); // inside the window: near
        assert_eq!(q.pop(), Some((996 * DAY, "a")));
        assert_eq!(q.pop(), Some((1010 * DAY, "d"))); // cursor now at day 1010
        q.push(1015 * DAY, "c"); // near (the window reaches day 1026)
        q.push(990 * DAY, "f"); // rolls the cursor back to day 990
        assert_eq!(q.pop(), Some((990 * DAY, "f")));
        // "b" (far, day 1012) precedes "c" (near, day 1015) but sat outside
        // the rolled-back window; find_min must migrate and rescan rather
        // than trust the near minimum.
        assert_eq!(q.pop(), Some((1012 * DAY, "b")));
        assert_eq!(q.pop(), Some((1015 * DAY, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn stamped_entries_keep_their_order_across_rebuild_and_retain() {
        // Lazy runs: each run reserves its stamps up front and queues only
        // its head; popping an element re-pushes the next one with its
        // reserved stamp. The pop order must equal the eager order, in
        // which every element was pushed at reservation time.
        const RUNS: u64 = 40;
        const LEN: u64 = 50;
        const PLAIN: u64 = LEN; // `k` of plain entries
        let at = |r: u64, k: u64| 1_000 + (k * 7 + r % 3) * 1_000; // ties across runs
        let mut eager = CalendarQueue::new();
        let mut lazy = CalendarQueue::new();
        let mut first = Vec::new();
        for r in 0..RUNS {
            for k in 0..LEN {
                eager.push(at(r, k), (r, k));
            }
            eager.push(at(r, 25), (r, PLAIN)); // ties with run elements
            let s = lazy.reserve_stamps(LEN);
            lazy.push_stamped(at(r, 0), s, (r, 0));
            lazy.push(at(r, 25), (r, PLAIN));
            first.push(s);
        }
        let mut got = Vec::new();
        while let Some((t, (r, k))) = lazy.pop() {
            got.push((t, (r, k)));
            if k + 1 < LEN {
                lazy.push_stamped(at(r, k + 1), first[r as usize] + k + 1, (r, k + 1));
            }
            if got.len() == 100 {
                // Grow the lazy queue past its rebuild trigger mid-run.
                let buckets = lazy.buckets.len();
                for i in 0..300 {
                    eager.push(at(i % RUNS, 30 + i % 5), (i, PLAIN));
                    lazy.push(at(i % RUNS, 30 + i % 5), (i, PLAIN));
                }
                assert!(lazy.buckets.len() > buckets, "no rebuild");
            }
            if got.len() == 200 {
                eager.retain(|&(r, k)| k < PLAIN || r % 2 == 0);
                lazy.retain(|&(r, k)| k < PLAIN || r % 2 == 0);
            }
        }
        let want: Vec<_> = std::iter::from_fn(|| eager.pop()).collect();
        assert_eq!(got, want);
    }

    /// Summed storage of every heap, in entries.
    fn capacity<T>(q: &CalendarQueue<T>) -> usize {
        q.buckets.iter().map(|b| b.capacity()).sum::<usize>() + q.far.capacity()
    }

    #[test]
    fn retain_releases_bucket_storage() {
        // A burst at one instant grows one bucket to 20k entries; after
        // `retain` keeps a hundred, no heap may hold on to that storage.
        let mut q = CalendarQueue::new();
        for i in 0..20_000u64 {
            q.push(1_000 + (i % 7), i);
        }
        for i in 0..2_000u64 {
            q.push(1 << 40 | i, i); // far-future entries
        }
        assert!(capacity(&q) >= 22_000);
        q.retain(|&i| i % 200 == 0);
        assert_eq!(q.len(), 110);
        let bound = 2 * q.len() + 4 * (q.buckets.len() + 1);
        assert!(capacity(&q) <= bound, "capacity {} > {bound}", capacity(&q));
    }

    #[test]
    fn wheel_shrinks_after_a_drain_down() {
        let mut q = CalendarQueue::new();
        for i in 0..50_000u64 {
            q.push(i * 10, i);
        }
        let grown = q.buckets.len();
        assert!(grown >= 32_768, "no growth: {grown} buckets");
        for i in 0..49_990u64 {
            assert_eq!(q.pop(), Some((i * 10, i)));
        }
        // Steady state at 10 entries, each pop replaced by a push, until
        // the wheel has seen one pop per bucket and shrinks.
        let mut i = 50_000u64;
        while q.buckets.len() == grown {
            assert!(i < 50_000 + grown as u64, "no shrink after {grown} pops");
            assert_eq!(q.pop(), Some(((i - 10) * 10, i - 10)));
            q.push(i * 10, i);
            i += 1;
        }
        assert!(q.buckets.len() <= 64, "wheel kept {} buckets for 10 entries", q.buckets.len());
        assert!(capacity(&q) <= 2 * q.len() + 4 * (q.buckets.len() + 1));
        while let Some((at, k)) = q.pop() {
            assert_eq!((at, k), ((i - 10) * 10, i - 10));
            i += 1;
        }
    }

    #[test]
    fn grow_drain_grow_cycles_match_a_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let (mut seq, mut now) = (0u64, 0u64);
        // Bursts of up to 30k pushes (some tied at one instant, some far
        // ahead), each drained down to a handful before the next: the
        // wheel grows and shrinks every cycle.
        for cycle in 0..6u64 {
            let burst = 3_000 + cycle * 5_000;
            for k in 0..burst {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let at = match k % 5 {
                    0 => now + 77,
                    1 => now + (x >> 20),
                    _ => now + (x >> 44),
                };
                seq += 1;
                q.push(at, seq);
                heap.push(Reverse((at, seq)));
            }
            while heap.len() > 5 {
                let got = q.pop();
                assert_eq!(got, heap.pop().map(|Reverse(p)| p), "cycle {cycle}");
                now = got.expect("non-empty").0;
            }
            // Idle at five entries long enough for the wheel to shrink.
            for _ in 0..q.buckets.len() {
                let (at, s) = q.pop().expect("non-empty");
                assert_eq!(Some((at, s)), heap.pop().map(|Reverse(p)| p), "cycle {cycle}");
                now = at;
                seq += 1;
                q.push(now + 1_000, seq);
                heap.push(Reverse((now + 1_000, seq)));
            }
            assert!(q.buckets.len() <= 64, "cycle {cycle}: {} buckets", q.buckets.len());
        }
        while let Some(Reverse(p)) = heap.pop() {
            assert_eq!(q.pop(), Some(p));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_cursor_is_found() {
        let mut q = CalendarQueue::new();
        q.push(1 << 30, "late");
        assert_eq!(q.peek_time(), Some(1 << 30)); // cursor jumps far ahead
        q.push(5, "early");
        assert_eq!(q.pop(), Some((5, "early")));
        assert_eq!(q.pop(), Some((1 << 30, "late")));
    }
}
