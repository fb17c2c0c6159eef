//! Measured maintenance campaigns: §3.2 on the real data path.
//!
//! The closed-form [`ReencryptionModel`](aeon_store::campaign::ReencryptionModel)
//! prices a re-encryption campaign as `capacity / bandwidth`, doubled
//! for write-back and doubled again for reserved foreground capacity.
//! This module runs the same campaign **live**: every object moves
//! through the unchanged Codec→Plan→Executor path against a
//! throughput-charged cluster
//! ([`ThroughputNode`](aeon_store::throughput::ThroughputNode)), and the
//! duration is read off the shared [`SimClock`] instead of computed. The
//! [`BandwidthScheduler`] implements the paper's reserved-capacity
//! factor by interleaving foreground time between background objects,
//! and [`MeasuredCampaign::extrapolate`] scales the measured run to a
//! real site's capacity — which is what `exp_reencrypt --measured`
//! cross-checks against the closed form.

use crate::archive::{Archive, ArchiveError, ObjectId};
use crate::maintenance::ObjectReencode;
use crate::policy::PolicyKind;
use crate::repair::FleetRepairOutcome;
use aeon_store::campaign::ReencryptionEstimate;
use aeon_store::clock::{SimClock, SimDuration, SimTime};
use std::collections::VecDeque;

/// Upper bound on a usable `reserved_fraction`.
///
/// The foreground charge per background interval `Δ` is
/// `Δ · r / (1 − r)`; as `r → 1` the factor diverges and `1 − r` loses
/// precision — at `r = 0.999999` a single f64 ulp of the divisor moves
/// the charge by minutes per background second, so "identical seed,
/// identical timeline" quietly stops holding. At `r = 0.99` the
/// amplification is capped at 99× and the factor is still exact to
/// ~1e-14 relative, which keeps campaign arithmetic reproducible.
/// Schedulers reject anything above this bound.
pub const MAX_RESERVED_FRACTION: f64 = 0.99;

/// Validates a reserved fraction against the documented bound; shared
/// by every campaign scheduler/driver.
///
/// # Panics
///
/// Panics unless `0 <= r <= MAX_RESERVED_FRACTION`.
pub(crate) fn check_reserved_fraction(r: f64) {
    assert!(
        (0.0..=MAX_RESERVED_FRACTION).contains(&r),
        "reserved fraction must be in [0, {MAX_RESERVED_FRACTION}]: \
         Δ·r/(1−r) amplifies f64 rounding without bound as r → 1 (got {r})"
    );
}

/// Foreground/background bandwidth arbitration on the virtual clock.
///
/// An archive never gives a maintenance campaign the whole machine: a
/// `reserved_fraction` of capacity stays pledged to foreground work
/// (ingest and reads). On a time-charged cluster that means every
/// interval of background time `Δ` implies `Δ · r / (1 − r)` of
/// foreground time threaded through it; the scheduler charges exactly
/// that to the clock after each background slice, which stretches the
/// campaign by `1 / (1 − r)` — the paper's reserved-capacity ×2 at
/// `r = 0.5`.
#[derive(Debug)]
pub struct BandwidthScheduler {
    clock: SimClock,
    reserved_fraction: f64,
    /// `r / (1 − r)`, computed once at construction so every interval
    /// is scaled by the exact same factor (recomputing per call would
    /// be identical in f64, but the invariant is clearer held once).
    fg_factor: f64,
    last: SimTime,
    foreground: SimDuration,
}

impl BandwidthScheduler {
    /// A scheduler reserving `reserved_fraction ∈ [0, MAX_RESERVED_FRACTION]`
    /// of capacity for foreground work, measuring background time on
    /// `clock` from now on.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= reserved_fraction <= `[`MAX_RESERVED_FRACTION`]
    /// — at 1 the campaign would never run, and arbitrarily close to 1
    /// the `Δ·r/(1−r)` charge amplifies f64 rounding into huge
    /// foreground figures (see the bound's documentation).
    pub fn new(clock: SimClock, reserved_fraction: f64) -> Self {
        check_reserved_fraction(reserved_fraction);
        let last = clock.now();
        BandwidthScheduler {
            clock,
            reserved_fraction,
            fg_factor: reserved_fraction / (1.0 - reserved_fraction),
            last,
            foreground: SimDuration::ZERO,
        }
    }

    /// Charges the foreground time implied by the background time that
    /// elapsed since the previous call (or construction), and returns
    /// it. Call after each background unit of work (an object migrated,
    /// a shard set repaired).
    pub fn reserve_foreground(&mut self) -> SimDuration {
        let now = self.clock.now();
        let background = now - self.last;
        let fg = background.mul_f64(self.fg_factor);
        self.clock.charge(fg);
        self.last = self.clock.now();
        self.foreground += fg;
        fg
    }

    /// Total foreground time charged so far.
    pub fn foreground_total(&self) -> SimDuration {
        self.foreground
    }

    /// The reserved fraction in effect.
    pub fn reserved_fraction(&self) -> f64 {
        self.reserved_fraction
    }
}

/// Progress snapshot from a [`ReencodeCampaignDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Objects migrated so far.
    pub objects_done: usize,
    /// Objects the campaign set out to migrate.
    pub objects_total: usize,
    /// Stored bytes read so far (old encodings).
    pub bytes_read: u64,
    /// Stored bytes written back so far (new encodings).
    pub bytes_written: u64,
    /// Virtual time the campaign's own steps have occupied the device.
    pub background_time: SimDuration,
}

/// A §3.2 re-encryption campaign broken into single-object steps, for
/// interleaving with live foreground traffic.
///
/// [`Archive::reencode_all_measured`] models reserved foreground
/// capacity by *charging* `Δ·r/(1−r)` of synthetic foreground time
/// after each object — correct for an otherwise idle cluster, but it
/// asserts the reservation rather than observing it. This driver is the
/// hook a request engine (the `aeon-serve` crate) uses to measure the
/// same factor as a latency distribution: each [`step`](Self::step)
/// migrates exactly one object (occupying the shared device for some
/// background interval `Δ` on the cluster clock), then the driver marks
/// itself ineligible until `now + Δ·r/(1−r)` — the reserved window in
/// which *real* foreground requests run instead of a synthetic charge.
/// The engine consults [`next_eligible`](Self::next_eligible) to decide
/// whether the campaign or the foreground queue gets the device next.
#[derive(Debug)]
pub struct ReencodeCampaignDriver {
    ids: VecDeque<ObjectId>,
    new_policy: PolicyKind,
    reserved_fraction: f64,
    fg_factor: f64,
    next_eligible: SimTime,
    objects_total: usize,
    objects_done: usize,
    bytes_read: u64,
    bytes_written: u64,
    background_time: SimDuration,
}

impl ReencodeCampaignDriver {
    /// Plans a campaign over every object currently in `archive`,
    /// migrating to `new_policy`, throttled so that each background
    /// step is followed by a `Δ·r/(1−r)` window reserved for foreground
    /// work. The driver is eligible immediately.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= reserved_fraction <= `[`MAX_RESERVED_FRACTION`]
    /// (same contract as [`BandwidthScheduler::new`]).
    pub fn new(archive: &Archive, new_policy: PolicyKind, reserved_fraction: f64) -> Self {
        check_reserved_fraction(reserved_fraction);
        let ids: VecDeque<ObjectId> = archive.catalog().ids().into();
        ReencodeCampaignDriver {
            objects_total: ids.len(),
            ids,
            new_policy,
            reserved_fraction,
            fg_factor: reserved_fraction / (1.0 - reserved_fraction),
            next_eligible: SimTime::ZERO,
            objects_done: 0,
            bytes_read: 0,
            bytes_written: 0,
            background_time: SimDuration::ZERO,
        }
    }

    /// Whether every planned object has been migrated.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.ids.is_empty()
    }

    /// The earliest instant the next background step may start — the
    /// end of the reserved-foreground window opened by the previous
    /// step. A scheduler must not call [`step`](Self::step) before the
    /// cluster clock reaches this instant.
    #[must_use]
    pub fn next_eligible(&self) -> SimTime {
        self.next_eligible
    }

    /// The reserved fraction in effect.
    #[must_use]
    pub fn reserved_fraction(&self) -> f64 {
        self.reserved_fraction
    }

    /// Migrates the next object through the real plan/executor path,
    /// occupying the device for the step's duration, and opens the
    /// following reserved-foreground window. Returns `None` when the
    /// campaign is complete.
    ///
    /// # Errors
    ///
    /// Propagates the per-object failure; the object is consumed (a
    /// fleet campaign does not retry a failed migration in place).
    pub fn step(&mut self, archive: &mut Archive) -> Result<Option<ObjectReencode>, ArchiveError> {
        let Some(id) = self.ids.pop_front() else {
            return Ok(None);
        };
        let clock = archive.cluster().clock().clone();
        let start = clock.now();
        let outcome = archive.reencode_object(&id, self.new_policy.clone())?;
        let end = clock.now();
        let background = end - start;
        self.next_eligible = end + background.mul_f64(self.fg_factor);
        self.objects_done += 1;
        self.bytes_read += outcome.bytes_read;
        self.bytes_written += outcome.bytes_written;
        self.background_time += background;
        Ok(Some(outcome))
    }

    /// Where the campaign stands.
    #[must_use]
    pub fn progress(&self) -> CampaignProgress {
        CampaignProgress {
            objects_done: self.objects_done,
            objects_total: self.objects_total,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            background_time: self.background_time,
        }
    }
}

/// What a measured campaign did and how long it took in virtual time.
/// All times are clock-snapshot differences; bytes are stored bytes on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredCampaign {
    /// Objects migrated.
    pub objects: usize,
    /// Stored bytes read (the old encoding).
    pub bytes_read: u64,
    /// Stored bytes written back (the new encoding).
    pub bytes_written: u64,
    /// Virtual time spent in read phases.
    pub read_time: SimDuration,
    /// Virtual time spent in write-back phases.
    pub write_time: SimDuration,
    /// Foreground time the [`BandwidthScheduler`] threaded through.
    pub foreground_time: SimDuration,
    /// Wall-to-wall virtual duration of the campaign (read + write +
    /// foreground, plus any fault stalls and retry backoff).
    pub elapsed: SimDuration,
}

impl MeasuredCampaign {
    /// Scales this measured run to an archive holding `target_bytes` of
    /// stored data, reproducing the closed-form estimate's three
    /// figures from measurement: read-phase time scaled is the
    /// read-only bound, read+write scaled is the with-write figure, and
    /// the full elapsed time scaled (foreground included) is the
    /// realistic figure. Throughput charges are linear in bytes, so the
    /// scale factor is just `target_bytes / bytes_read`.
    pub fn extrapolate(&self, target_bytes: f64) -> ReencryptionEstimate {
        let scale = if self.bytes_read == 0 {
            0.0
        } else {
            target_bytes / self.bytes_read as f64
        };
        ReencryptionEstimate {
            read_only_months: self.read_time.as_months_f64() * scale,
            with_write_months: (self.read_time + self.write_time).as_months_f64() * scale,
            realistic_months: self.elapsed.as_months_f64() * scale,
        }
    }
}

/// Virtual-time accounting for refresh/repair fleet sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignClockStats {
    /// Objects the sweep touched.
    pub objects: usize,
    /// Wall-to-wall virtual duration.
    pub elapsed: SimDuration,
    /// Foreground time threaded through by the scheduler.
    pub foreground_time: SimDuration,
}

impl Archive {
    /// Runs a full re-encryption campaign — every object re-encoded
    /// under `new_policy` through the real plan/executor path — under a
    /// [`BandwidthScheduler`] reserving `reserved_fraction` of capacity
    /// for foreground work. On a throughput-charged cluster the
    /// returned [`MeasuredCampaign`] *is* the §3.2 measurement.
    ///
    /// # Errors
    ///
    /// Propagates the first per-object failure.
    pub fn reencode_all_measured(
        &mut self,
        new_policy: PolicyKind,
        reserved_fraction: f64,
    ) -> Result<MeasuredCampaign, ArchiveError> {
        let clock = self.cluster().clock().clone();
        let start = clock.now();
        let mut scheduler = BandwidthScheduler::new(clock.clone(), reserved_fraction);
        let ids: Vec<ObjectId> = self.manifests.ids();
        let mut campaign = MeasuredCampaign {
            objects: 0,
            bytes_read: 0,
            bytes_written: 0,
            read_time: SimDuration::ZERO,
            write_time: SimDuration::ZERO,
            foreground_time: SimDuration::ZERO,
            elapsed: SimDuration::ZERO,
        };
        for id in &ids {
            let o = self.reencode_object(id, new_policy.clone())?;
            campaign.objects += 1;
            campaign.bytes_read += o.bytes_read;
            campaign.bytes_written += o.bytes_written;
            campaign.read_time += o.read_time;
            campaign.write_time += o.write_time;
            scheduler.reserve_foreground();
        }
        campaign.foreground_time = scheduler.foreground_total();
        campaign.elapsed = clock.now() - start;
        Ok(campaign)
    }

    /// Runs one proactive-refresh epoch over every Shamir-encoded
    /// object under a [`BandwidthScheduler`]; non-Shamir objects are
    /// skipped (refresh is undefined for them).
    ///
    /// # Errors
    ///
    /// Propagates the first per-object failure.
    pub fn refresh_all_measured(
        &mut self,
        reserved_fraction: f64,
    ) -> Result<CampaignClockStats, ArchiveError> {
        let clock = self.cluster().clock().clone();
        let start = clock.now();
        let mut scheduler = BandwidthScheduler::new(clock.clone(), reserved_fraction);
        let ids: Vec<ObjectId> = self
            .manifests
            .snapshot()
            .into_iter()
            .filter(|m| matches!(m.policy, PolicyKind::Shamir { .. }))
            .map(|m| m.id)
            .collect();
        for id in &ids {
            self.refresh_object(id)?;
            scheduler.reserve_foreground();
        }
        Ok(CampaignClockStats {
            objects: ids.len(),
            elapsed: clock.now() - start,
            foreground_time: scheduler.foreground_total(),
        })
    }

    /// Runs a fleet repair sweep (every object, continuing past
    /// per-object failures exactly like [`Archive::repair_all`]) under
    /// a [`BandwidthScheduler`], returning the per-object outcomes plus
    /// the campaign's virtual-time accounting.
    pub fn repair_all_measured(
        &mut self,
        reserved_fraction: f64,
    ) -> (FleetRepairOutcome, CampaignClockStats) {
        let clock = self.cluster().clock().clone();
        let start = clock.now();
        let mut scheduler = BandwidthScheduler::new(clock.clone(), reserved_fraction);
        let ids: Vec<ObjectId> = self.manifests.ids();
        let mut outcome = FleetRepairOutcome {
            repaired: Vec::new(),
            failed: Vec::new(),
            healthy: 0,
        };
        for id in ids.iter() {
            match self.repair_object(id) {
                Ok(report) if report.method == crate::repair::RepairMethod::NotNeeded => {
                    outcome.healthy += 1
                }
                Ok(report) => outcome.repaired.push((id.clone(), report)),
                Err(e) => outcome.failed.push((id.clone(), e)),
            }
            scheduler.reserve_foreground();
        }
        let stats = CampaignClockStats {
            objects: ids.len(),
            elapsed: clock.now() - start,
            foreground_time: scheduler.foreground_total(),
        };
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_interleaves_reserved_capacity() {
        let clock = SimClock::new();
        let mut s = BandwidthScheduler::new(clock.clone(), 0.5);
        clock.charge(SimDuration::from_secs(10)); // background work
        let fg = s.reserve_foreground();
        // r = 0.5: foreground equals background, elapsed doubles.
        assert_eq!(fg, SimDuration::from_secs(10));
        assert_eq!(clock.now(), SimTime::ZERO + SimDuration::from_secs(20));
        assert_eq!(s.foreground_total(), SimDuration::from_secs(10));
    }

    #[test]
    fn zero_reservation_charges_nothing() {
        let clock = SimClock::new();
        let mut s = BandwidthScheduler::new(clock.clone(), 0.0);
        clock.charge(SimDuration::from_secs(7));
        assert_eq!(s.reserve_foreground(), SimDuration::ZERO);
        assert_eq!(clock.now().as_secs_f64(), 7.0);
    }

    #[test]
    fn quarter_reservation_stretches_by_a_third() {
        let clock = SimClock::new();
        let mut s = BandwidthScheduler::new(clock.clone(), 0.25);
        clock.charge(SimDuration::from_secs(9));
        // 9 s background ⇒ 3 s foreground: 12 s total = 9 / (1 − 0.25).
        assert_eq!(s.reserve_foreground(), SimDuration::from_secs(3));
        assert_eq!(clock.now().as_secs_f64(), 12.0);
    }

    #[test]
    #[should_panic(expected = "reserved fraction")]
    fn full_reservation_is_rejected() {
        let _ = BandwidthScheduler::new(SimClock::new(), 1.0);
    }

    #[test]
    #[should_panic(expected = "reserved fraction")]
    fn near_unity_reservation_is_rejected() {
        // r = 0.999999 passed the old `[0, 1)` check but amplifies
        // every background interval by ~1e6× through Δ·r/(1−r), where
        // a single f64 ulp of (1−r) is already minutes of foreground
        // charge per background second.
        let _ = BandwidthScheduler::new(SimClock::new(), 0.999999);
    }

    #[test]
    fn bound_is_inclusive_at_the_documented_maximum() {
        let clock = SimClock::new();
        let mut s = BandwidthScheduler::new(clock.clone(), MAX_RESERVED_FRACTION);
        clock.charge(SimDuration::from_secs(1));
        // 1 s background ⇒ 99 s foreground at the cap.
        let fg = s.reserve_foreground();
        assert!((fg.as_secs_f64() - 99.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "reserved fraction")]
    fn driver_rejects_near_unity_reservation() {
        use crate::archive::ArchiveConfig;
        let archive =
            Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication { copies: 2 })).unwrap();
        let _ =
            ReencodeCampaignDriver::new(&archive, PolicyKind::Replication { copies: 3 }, 0.999999);
    }

    #[test]
    fn driver_steps_objects_and_opens_reserved_windows() {
        use crate::archive::ArchiveConfig;
        use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
        let profile = ThroughputProfile::new(SimDuration::from_millis(1), 1e6, 1e6);
        let (cluster, clock) = throughput_in_memory_cluster(&["a", "b", "c"], 1, &profile);
        let config = ArchiveConfig::new(PolicyKind::Replication { copies: 3 });
        let mut archive = Archive::with_cluster(config, cluster).unwrap();
        for i in 0..3 {
            archive.ingest(&[7u8; 2048], &format!("o{i}")).unwrap();
        }
        let mut driver =
            ReencodeCampaignDriver::new(&archive, PolicyKind::Replication { copies: 2 }, 0.5);
        assert_eq!(driver.next_eligible(), SimTime::ZERO);
        let campaign_start = clock.now();
        let mut steps = 0;
        while let Some(outcome) = driver.step(&mut archive).unwrap() {
            steps += 1;
            assert!(outcome.bytes_read > 0);
            // r = 0.5: the reserved window equals the background step,
            // so eligibility lands strictly after the step's end.
            assert!(driver.next_eligible() > clock.now());
        }
        assert_eq!(steps, 3);
        assert!(driver.is_done());
        let p = driver.progress();
        assert_eq!((p.objects_done, p.objects_total), (3, 3));
        assert!(p.background_time > SimDuration::ZERO);
        // Unlike BandwidthScheduler, the driver charges no synthetic
        // foreground time: all clock movement during the campaign is
        // the steps' own device occupancy. The reserved windows are
        // left open for a real request engine to fill.
        assert_eq!(clock.now() - campaign_start, p.background_time);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let m = MeasuredCampaign {
            objects: 4,
            bytes_read: 1_000,
            bytes_written: 1_000,
            read_time: SimDuration::from_days(1),
            write_time: SimDuration::from_days(1),
            foreground_time: SimDuration::from_days(2),
            elapsed: SimDuration::from_days(4),
        };
        let e = m.extrapolate(10_000.0);
        assert!((e.read_only_months - 10.0 / 30.44).abs() < 1e-9);
        assert!((e.with_write_months - 2.0 * e.read_only_months).abs() < 1e-9);
        assert!((e.realistic_months - 4.0 * e.read_only_months).abs() < 1e-9);
    }
}
