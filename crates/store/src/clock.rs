//! The virtual-time engine: one clock for the whole workspace.
//!
//! Everything in `aeon` that used to keep its own notion of time —
//! epoch counters on fault windows, per-op latency accounting in
//! [`crate::faults::FaultyNode`], millisecond backoff tallies in retry
//! reports — now reads and charges a single [`SimClock`]. The clock is
//! **virtual**: it holds monotonic virtual nanoseconds that advance
//! only when a charged operation happens (a throughput-priced transfer,
//! a fault-injected stall, a retry backoff). Wall time never moves it,
//! so a century-scale maintenance campaign simulates in milliseconds
//! and a given seed always reproduces the same timeline.
//!
//! The contract has three roles:
//!
//! * **Chargers** — node decorators ([`crate::throughput::ThroughputNode`],
//!   [`crate::faults::FaultyNode`]) and [`crate::retry::run_with_retry`]
//!   call [`SimClock::charge`] with the virtual cost of each operation.
//! * **Readers** — campaigns and tests snapshot [`SimClock::now`] around
//!   phases; elapsed virtual time is the difference of two readings.
//! * **Epoch mapping** — anything epoch-driven (fault offline windows,
//!   proactive-refresh cadence, adversary rounds) converts through one
//!   [`EpochSchedule`]; no other epoch arithmetic exists.
//!
//! Charges are commutative additions on one counter, so the total
//! elapsed time of a fixed operation multiset is independent of the
//! order the operations ran in — a property the clock tests pin. The
//! one place time is not simply summed is the capture frame
//! [`crate::cluster::Cluster::dispatch_lanes`] opens around each leg of
//! a parallel fan-out (`SimClock::divert`, crate-private): the leg's
//! cost is measured on the counter, the counter is rewound, and the
//! dispatcher prices the cost on the leg's node lane. Everything runs
//! on the caller's thread, so there is one frame at a time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual nanoseconds in one simulated day (24 h).
pub const NANOS_PER_DAY: u64 = 86_400 * NANOS_PER_SEC;
/// Virtual nanoseconds in one simulated second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Mean days per month used throughout §3.2 (365.25 / 12).
pub const DAYS_PER_MONTH: f64 = 30.44;

/// An instant on the virtual timeline, as nanoseconds since the
/// simulation origin. Obtained from [`SimClock::now`] or
/// [`EpochSchedule::start_of`]; never from wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs an instant from raw virtual nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw virtual nanoseconds since the origin.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole virtual milliseconds since the origin (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Virtual seconds since the origin.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Virtual days since the origin.
    #[must_use]
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_DAY as f64
    }

    /// Virtual months since the origin (30.44-day months, as in §3.2).
    #[must_use]
    pub fn as_months_f64(self) -> f64 {
        self.as_days_f64() / DAYS_PER_MONTH
    }

    /// Elapsed duration since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

/// A span of virtual time. The unit every charge is denominated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-cost duration (metadata operations charge this).
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of raw virtual nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// A duration of virtual milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// A duration of virtual seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(NANOS_PER_SEC))
    }

    /// A duration of virtual days.
    #[must_use]
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d.saturating_mul(NANOS_PER_DAY))
    }

    /// A duration of fractional virtual seconds, rounded to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw virtual nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole virtual milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional virtual seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional virtual days.
    #[must_use]
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_DAY as f64
    }

    /// Fractional virtual months (30.44-day months, as in §3.2).
    #[must_use]
    pub fn as_months_f64(self) -> f64 {
        self.as_days_f64() / DAYS_PER_MONTH
    }

    /// Scales the duration by `factor`, rounding to the nearest
    /// nanosecond. Negative or non-finite factors clamp to zero.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Self {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Shared state behind every handle onto one timeline: the counter,
/// and whether a capture frame ([`SimClock::divert`]) is open on it.
#[derive(Debug, Default)]
struct ClockInner {
    ns: AtomicU64,
    capturing: AtomicBool,
}

/// The shared virtual clock.
///
/// A `SimClock` is a cheap-to-clone handle onto one atomic counter of
/// virtual nanoseconds: cloning shares the timeline, so a cluster, its
/// node decorators, and the retry layer all observe the same `now()`.
/// [`charge`](Self::charge) adds and [`advance_to`](Self::advance_to)
/// takes a max, so the counter only moves forward, and only by
/// simulated work, never by wall time. The one rewind is the close of
/// a parallel dispatch leg's capture frame, which returns the counter
/// to where the frame opened.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

impl SimClock {
    /// A fresh clock at the simulation origin.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current virtual instant. Inside a capture frame this is
    /// lane-local: the instant the frame opened plus the cost charged
    /// since.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.ns.load(Ordering::SeqCst))
    }

    /// Charges `cost` of virtual time to the clock and returns the new
    /// reading. Charges are commutative additions, so the final reading
    /// of a fixed set of charges is independent of the order they
    /// arrive in. The addition saturates at the top of the range: a
    /// plain `fetch_add` would wrap the counter and let the
    /// timeline run backwards when a saturated duration (an offline
    /// device, a pathological backoff) is charged near `u64::MAX`.
    pub fn charge(&self, cost: SimDuration) -> SimTime {
        let mut cur = self.inner.ns.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_add(cost.0);
            match self
                .inner
                .ns
                .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return SimTime(next),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Advances the clock to `instant` if it is ahead of the current
    /// reading; otherwise does nothing (the clock never moves
    /// backwards). Used by epoch-driven schedules to jump to the start
    /// of a later epoch. Inside a capture frame the jump is part of the
    /// captured cost, so a `FaultyNode` waiting out an offline window
    /// in one leg of a parallel fan-out delays only that leg's lane.
    pub fn advance_to(&self, instant: SimTime) {
        self.inner.ns.fetch_max(instant.0, Ordering::SeqCst);
    }

    /// Runs `f` in a capture frame and returns `f`'s result with the
    /// virtual cost it charged; the clock reads as it did before `f`
    /// when this returns. The frame is `(base, accum)`: `base` is the
    /// reading when it opened and `accum` is how far the counter has
    /// moved past it, so `now`, `charge` and `advance_to` need no
    /// frame-aware path — closing the frame rewinds the counter to
    /// `base` and reports `accum`. The caller decides where the cost
    /// lands (`Cluster::dispatch_lanes` puts it on the leg's node lane
    /// and advances the clock once, to the critical path).
    ///
    /// A clock holds at most one frame: a leg is one node's work and a
    /// node never dispatches, so an inner capture is a bug and panics.
    /// If `f` panics, the frame is closed on unwind and its cost
    /// dropped, so later charges land on the clock again.
    pub(crate) fn divert<T>(&self, f: impl FnOnce() -> T) -> (T, SimDuration) {
        let nested = self.inner.capturing.swap(true, Ordering::SeqCst);
        assert!(!nested, "capture frames do not nest");
        let frame = Frame {
            inner: &self.inner,
            base: self.inner.ns.load(Ordering::SeqCst),
        };
        let out = f();
        let accum = frame.close();
        (out, SimDuration(accum))
    }

    /// Whether two handles share one timeline.
    #[must_use]
    pub fn same_clock(&self, other: &SimClock) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// An open capture frame. Dropping it (normally, or on unwind from a
/// panicking leg) rewinds the counter to `base` and closes the frame.
struct Frame<'a> {
    inner: &'a ClockInner,
    base: u64,
}

impl Frame<'_> {
    /// Closes the frame and returns the cost charged inside it.
    fn close(self) -> u64 {
        self.inner.ns.load(Ordering::SeqCst) - self.base
    }
}

impl Drop for Frame<'_> {
    fn drop(&mut self) {
        self.inner.ns.store(self.base, Ordering::SeqCst);
        self.inner.capturing.store(false, Ordering::SeqCst);
    }
}

/// The single `Epoch ↔ SimTime` conversion.
///
/// Every epoch-driven mechanism — fault offline windows, proactive
/// refresh cadence, mobile-adversary rounds — maps its epoch numbers
/// onto the virtual timeline through one of these. An epoch `e` covers
/// the half-open interval `[start_of(e), start_of(e + 1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSchedule {
    epoch: SimDuration,
}

impl EpochSchedule {
    /// A schedule with the given epoch length (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero — a zero-length epoch cannot partition
    /// the timeline.
    #[must_use]
    pub fn new(epoch: SimDuration) -> Self {
        assert!(epoch.0 > 0, "epoch length must be non-zero");
        EpochSchedule { epoch }
    }

    /// The instant epoch `e` begins.
    #[must_use]
    pub fn start_of(&self, epoch: u64) -> SimTime {
        SimTime(epoch.saturating_mul(self.epoch.0))
    }

    /// The epoch containing `instant`.
    #[must_use]
    pub fn epoch_of(&self, instant: SimTime) -> u64 {
        instant.0 / self.epoch.0
    }
}

impl Default for EpochSchedule {
    /// One virtual day per epoch — long enough that the ms-scale
    /// latency and backoff charges of a campaign never push an
    /// operation across an epoch boundary on their own, so epoch-keyed
    /// fault logs are stable under the clock refactor.
    fn default() -> Self {
        EpochSchedule::new(SimDuration::from_days(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_is_monotone() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        let t1 = clock.charge(SimDuration::from_millis(5));
        let t2 = clock.charge(SimDuration::from_nanos(1));
        assert_eq!(t1.as_nanos(), 5_000_000);
        assert_eq!(t2.as_nanos(), 5_000_001);
        assert_eq!(clock.now(), t2);
    }

    #[test]
    fn clones_share_the_timeline() {
        let clock = SimClock::new();
        let handle = clock.clone();
        handle.charge(SimDuration::from_secs(3));
        assert_eq!(clock.now().as_secs_f64(), 3.0);
        assert!(clock.same_clock(&handle));
        assert!(!clock.same_clock(&SimClock::new()));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let clock = SimClock::new();
        clock.advance_to(SimTime::from_nanos(100));
        assert_eq!(clock.now().as_nanos(), 100);
        clock.advance_to(SimTime::from_nanos(40));
        assert_eq!(clock.now().as_nanos(), 100, "rewind must be a no-op");
        clock.advance_to(SimTime::from_nanos(100));
        assert_eq!(clock.now().as_nanos(), 100, "advance is idempotent");
    }

    #[test]
    fn charge_saturates_at_the_top_of_the_timeline() {
        let clock = SimClock::new();
        clock.charge(SimDuration::from_nanos(u64::MAX));
        let t = clock.charge(SimDuration::from_nanos(u64::MAX));
        assert_eq!(t.as_nanos(), u64::MAX, "no wrap-around");
        assert_eq!(
            clock.now().as_nanos(),
            u64::MAX,
            "monotone under saturation"
        );
    }

    #[test]
    fn epoch_schedule_roundtrips() {
        let sched = EpochSchedule::default();
        for e in [0u64, 1, 7, 99, 100_000] {
            assert_eq!(sched.epoch_of(sched.start_of(e)), e);
            // Any instant strictly inside the epoch maps back to it.
            let inside = sched.start_of(e) + SimDuration::from_millis(250);
            assert_eq!(sched.epoch_of(inside), e);
        }
    }

    #[test]
    fn charges_commute() {
        // The same multiset of charges in two different orders lands on
        // the same reading — the property that makes elapsed virtual
        // time independent of worker scheduling.
        let a = SimClock::new();
        let b = SimClock::new();
        let costs = [3u64, 141, 59, 26, 5, 897, 9, 32];
        for c in costs {
            a.charge(SimDuration::from_nanos(c));
        }
        for c in costs.iter().rev() {
            b.charge(SimDuration::from_nanos(*c));
        }
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn divert_captures_charges_without_moving_the_frontier() {
        let clock = SimClock::new();
        clock.charge(SimDuration::from_millis(10));
        let ((), cost) = clock.divert(|| {
            clock.charge(SimDuration::from_millis(3));
            clock.charge(SimDuration::from_millis(4));
            // Lane-local reading: diversion base plus captured cost.
            assert_eq!(clock.now().as_millis(), 17);
        });
        assert_eq!(cost.as_millis(), 7);
        assert_eq!(clock.now().as_millis(), 10, "frontier untouched");
    }

    #[test]
    fn diverted_advance_to_stays_on_the_lane() {
        let clock = SimClock::new();
        clock.charge(SimDuration::from_millis(5));
        let ((), cost) = clock.divert(|| {
            // An epoch jump inside a diversion (e.g. a FaultyNode
            // moving to an offline window's end) is captured as lane
            // cost, never written through to the global frontier.
            clock.advance_to(SimTime::from_nanos(9_000_000));
            assert_eq!(clock.now().as_millis(), 9);
            // Jumping backwards is still a no-op.
            clock.advance_to(SimTime::from_nanos(1));
            assert_eq!(clock.now().as_millis(), 9);
        });
        assert_eq!(cost.as_millis(), 4, "cost is the jump past base");
        assert_eq!(clock.now().as_millis(), 5, "frontier untouched");
    }

    #[test]
    #[should_panic(expected = "capture frames do not nest")]
    fn captures_do_not_nest() {
        let clock = SimClock::new();
        clock.divert(|| clock.divert(|| ()));
    }

    #[test]
    fn divert_unwinds_on_panic() {
        let clock = SimClock::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clock.divert(|| {
                clock.charge(SimDuration::from_millis(9));
                panic!("boom");
            })
        }));
        assert!(caught.is_err());
        // The frame was closed: charges land globally again, and a new
        // frame can open.
        clock.charge(SimDuration::from_millis(1));
        assert_eq!(clock.now().as_millis(), 1);
        assert_eq!(clock.divert(|| ()).1, SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_days(1).as_nanos(), NANOS_PER_DAY);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        let d = SimDuration::from_secs(10).mul_f64(0.5);
        assert_eq!(d.as_secs_f64(), 5.0);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        let month = SimDuration::from_days(3044).mul_f64(0.01);
        assert!((month.as_months_f64() - 1.0).abs() < 1e-9);
    }
}
