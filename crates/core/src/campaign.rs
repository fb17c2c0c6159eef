//! Campaigns: the one loop behind every fleet sweep.
//!
//! The paper's §3.2 prices a maintenance campaign as `size / bandwidth`,
//! doubled for write-back and doubled again for the capacity reserved to
//! foreground work. A [`Campaign`] runs that **live**: a work list fixed
//! at construction × one per-object operation ([`CampaignOp`]: re-encode,
//! repair or proactive refresh, each through the unchanged
//! Codec→Plan→Executor path) × one pacing rule. Every step occupies the
//! device for some background interval `Δ`, read off the shared
//! [`SimClock`](aeon_store::clock::SimClock), and opens a `Δ·r/(1−r)`
//! window reserved for foreground work before the next step may start —
//! which stretches the campaign by `1/(1−r)`, the paper's ×2 at
//! `r = 0.5`.
//!
//! Who fills the window is the only difference between callers.
//! [`Campaign::run`] advances the clock across it (an idle cluster: the
//! window nobody used); a request engine (the `aeon-serve` crate) calls
//! [`Campaign::step`] itself and serves real traffic until
//! [`Campaign::next_eligible`]. Both are accounted in one
//! [`CampaignReport`], whose [`extrapolate`](CampaignReport::extrapolate)
//! scales a measured run to a real site's capacity — what
//! `aeon-exp reencrypt --measured` cross-checks against the closed-form
//! [`ReencryptionModel`](aeon_store::campaign::ReencryptionModel).

use crate::archive::{Archive, ArchiveError, ObjectId};
use crate::fleet::RepairQueueOrder;
use crate::policy::PolicyKind;
use crate::repair::RepairMethod;
use aeon_store::campaign::ReencryptionEstimate;
use aeon_store::clock::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Upper bound on a usable `reserved_fraction`.
///
/// The foreground window per background interval `Δ` is
/// `Δ · r / (1 − r)`; as `r → 1` the factor diverges and `1 − r` loses
/// precision — at `r = 0.999999` a single f64 ulp of the divisor moves
/// the window by minutes per background second, so "identical seed,
/// identical timeline" quietly stops holding. At `r = 0.99` the
/// amplification is capped at 99× and the factor is still exact to
/// ~1e-14 relative, which keeps campaign arithmetic reproducible.
/// [`Campaign::new`] rejects anything above this bound.
pub const MAX_RESERVED_FRACTION: f64 = 0.99;

/// The per-object operation a [`Campaign`] sweeps, which also decides
/// its work list.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOp {
    /// [`Archive::reencode_object`] to this policy, over every object in
    /// catalog order — the §3.2 re-encryption campaign.
    Reencode(PolicyKind),
    /// [`Archive::repair_object`] over the degraded objects of one
    /// [`Archive::scan_fleet`], in this order.
    Repair(RepairQueueOrder),
    /// [`Archive::refresh_object`] over every Shamir-encoded object in
    /// catalog order (refresh is undefined for the rest).
    Refresh,
}

impl CampaignOp {
    /// Whether a sweep goes on after one object fails. A repair sweep
    /// does — the object is counted in [`CampaignReport::failed`] and
    /// the rest of the fleet still gets healed; a re-encode or refresh
    /// stops at its first failure.
    #[must_use]
    pub fn continues_past_failure(&self) -> bool {
        matches!(self, CampaignOp::Repair(_))
    }
}

/// Totals of a [`Campaign`] so far. Times are clock-snapshot
/// differences; bytes are stored bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Objects the campaign set out to visit.
    pub objects_total: usize,
    /// Objects visited so far, failed ones included.
    pub objects_done: usize,
    /// Repair steps that rebuilt something.
    pub repaired: usize,
    /// Repair steps that found the object already whole.
    pub healthy: usize,
    /// Steps whose operation returned an error.
    pub failed: usize,
    /// Stored bytes read. Every step counts, including a repair probe
    /// that found nothing to do. Refresh reports protocol traffic, not
    /// stored bytes, and adds none.
    pub bytes_read: u64,
    /// Stored bytes written back.
    pub bytes_written: u64,
    /// Virtual time spent in read phases (re-encode steps only; the
    /// other operations do not split their time).
    pub read_time: SimDuration,
    /// Virtual time spent in write-back phases (re-encode steps only).
    pub write_time: SimDuration,
    /// Virtual time the campaign's own steps occupied the device: `Σ Δ`,
    /// fault stalls and retry backoff included.
    pub background_time: SimDuration,
    /// Foreground windows opened so far: `Σ Δ·r/(1−r)`.
    pub foreground_time: SimDuration,
}

impl CampaignReport {
    /// The campaign's duration at its reserved fraction: device time
    /// plus the windows it left to foreground work. Under
    /// [`Campaign::run`] this is the wall-to-wall virtual duration.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.background_time + self.foreground_time
    }

    /// Total bytes moved over node I/O (read + written).
    #[must_use]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// `true` when no step failed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }

    /// Scales this measured run to an archive holding `target_bytes` of
    /// stored data, reproducing the closed-form estimate's three
    /// figures from measurement: read-phase time scaled is the
    /// read-only bound, read+write scaled is the with-write figure, and
    /// the full elapsed time scaled (foreground included) is the
    /// realistic figure. Throughput charges are linear in bytes, so the
    /// scale factor is just `target_bytes / bytes_read`.
    #[must_use]
    pub fn extrapolate(&self, target_bytes: f64) -> ReencryptionEstimate {
        let scale = if self.bytes_read == 0 {
            0.0
        } else {
            target_bytes / self.bytes_read as f64
        };
        ReencryptionEstimate {
            read_only_months: self.read_time.as_months_f64() * scale,
            with_write_months: (self.read_time + self.write_time).as_months_f64() * scale,
            realistic_months: self.elapsed().as_months_f64() * scale,
        }
    }
}

/// A fleet sweep broken into single-object steps under the
/// reserved-window rule (see the module documentation).
#[derive(Debug)]
pub struct Campaign {
    work: VecDeque<ObjectId>,
    op: CampaignOp,
    /// `r / (1 − r)`, computed once so every interval is scaled by the
    /// exact same factor.
    fg_factor: f64,
    next_eligible: SimTime,
    report: CampaignReport,
    failures: Vec<(ObjectId, ArchiveError)>,
}

impl Campaign {
    /// Plans `op` over the objects currently in `archive` (which ones,
    /// and in what order, is [`CampaignOp`]'s to say), reserving
    /// `reserved_fraction` of capacity for foreground work. The campaign
    /// is eligible immediately.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= reserved_fraction <= `[`MAX_RESERVED_FRACTION`]
    /// — at 1 the campaign would never run, and arbitrarily close to 1
    /// the `Δ·r/(1−r)` window amplifies f64 rounding into huge
    /// foreground figures (see the bound's documentation).
    pub fn new(archive: &Archive, op: CampaignOp, reserved_fraction: f64) -> Self {
        let rows = archive.manifests.rows();
        let work = match &op {
            CampaignOp::Reencode(_) => rows.map(|m| m.id.clone()).collect(),
            CampaignOp::Repair(order) => archive.scan_fleet().repair_order(*order),
            CampaignOp::Refresh => rows
                .filter(|m| matches!(m.policy, PolicyKind::Shamir { .. }))
                .map(|m| m.id.clone())
                .collect(),
        };
        Campaign::over(work, op, reserved_fraction)
    }

    /// [`Campaign::new`] with the work list given: for a caller that
    /// already holds the scan, or sweeps more than the scan lists.
    pub(crate) fn over(work: Vec<ObjectId>, op: CampaignOp, reserved_fraction: f64) -> Self {
        assert!(
            (0.0..=MAX_RESERVED_FRACTION).contains(&reserved_fraction),
            "reserved fraction must be in [0, {MAX_RESERVED_FRACTION}]: \
             Δ·r/(1−r) amplifies f64 rounding without bound as r → 1 (got {reserved_fraction})"
        );
        Campaign {
            report: CampaignReport {
                objects_total: work.len(),
                ..CampaignReport::default()
            },
            work: work.into(),
            op,
            fg_factor: reserved_fraction / (1.0 - reserved_fraction),
            next_eligible: SimTime::ZERO,
            failures: Vec::new(),
        }
    }

    /// The operation this campaign sweeps.
    #[must_use]
    pub fn op(&self) -> &CampaignOp {
        &self.op
    }

    /// Whether every planned object has been visited.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.work.is_empty()
    }

    /// The earliest instant the next step may start — the end of the
    /// foreground window the previous step opened. A scheduler must not
    /// call [`step`](Self::step) before the cluster clock reaches it.
    #[must_use]
    pub fn next_eligible(&self) -> SimTime {
        self.next_eligible
    }

    /// Where the campaign stands.
    #[must_use]
    pub fn report(&self) -> CampaignReport {
        self.report
    }

    /// The objects a repair [`run`](Self::run) went past, with the error
    /// each one's repair returned.
    #[must_use]
    pub fn failures(&self) -> &[(ObjectId, ArchiveError)] {
        &self.failures
    }

    /// Runs the operation on the next object, occupying the device for
    /// the step's duration `Δ`, and opens the following `Δ·r/(1−r)`
    /// foreground window. Returns the object and either the stored bytes
    /// the step moved or the operation's error — or `None` once the work
    /// list is empty.
    ///
    /// The step itself never fails: the device was occupied whether or
    /// not the operation succeeded, so a failed object is consumed,
    /// counted, and followed by its window like any other. What a
    /// failure means for the rest of the sweep
    /// ([`CampaignOp::continues_past_failure`]) is the caller's to apply.
    pub fn step(&mut self, archive: &mut Archive) -> Option<(ObjectId, Result<u64, ArchiveError>)> {
        let id = self.work.pop_front()?;
        let clock = archive.cluster().clock().clone();
        let report = &mut self.report;
        let start = clock.now();
        let moved = match &self.op {
            CampaignOp::Reencode(policy) => archive.reencode_object(&id, policy.clone()).map(|o| {
                report.read_time += o.read_time;
                report.write_time += o.write_time;
                (o.bytes_read, o.bytes_written)
            }),
            CampaignOp::Repair(_) => archive.repair_object(&id).map(|r| {
                match r.method {
                    RepairMethod::NotNeeded => report.healthy += 1,
                    _ => report.repaired += 1,
                }
                (r.bytes_read, r.bytes_written)
            }),
            CampaignOp::Refresh => archive.refresh_object(&id).map(|_| (0, 0)),
        };
        let end = clock.now();
        let background = end - start;
        let window = background.mul_f64(self.fg_factor);
        self.next_eligible = end + window;
        report.objects_done += 1;
        report.background_time += background;
        report.foreground_time += window;
        let moved = moved.map(|(read, written)| {
            report.bytes_read += read;
            report.bytes_written += written;
            read + written
        });
        report.failed += usize::from(moved.is_err());
        Some((id, moved))
    }

    /// Steps until the work list is empty or this call has moved at
    /// least `byte_cap` bytes (`u64::MAX` for no cap; the step that
    /// crosses the cap completes, the rest stay queued for a later
    /// `run`), advancing the clock across every foreground window — the
    /// last one included — as an otherwise idle cluster would. Returns
    /// the campaign's totals so far.
    ///
    /// # Errors
    ///
    /// A re-encode or refresh campaign stops at its first per-object
    /// failure and returns it. A repair campaign never fails: it keeps
    /// each failure in [`failures`](Self::failures) and goes on.
    pub fn run(
        &mut self,
        archive: &mut Archive,
        byte_cap: u64,
    ) -> Result<CampaignReport, ArchiveError> {
        let clock = archive.cluster().clock().clone();
        let moved_before = self.report.bytes_moved();
        while self.report.bytes_moved() - moved_before < byte_cap {
            let Some((id, outcome)) = self.step(archive) else {
                break;
            };
            clock.advance_to(self.next_eligible);
            if let Err(e) = outcome {
                if !self.op.continues_past_failure() {
                    return Err(e);
                }
                self.failures.push((id, e));
            }
        }
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_scales_linearly() {
        let m = CampaignReport {
            objects_total: 4,
            objects_done: 4,
            bytes_read: 1_000,
            bytes_written: 1_000,
            read_time: SimDuration::from_days(1),
            write_time: SimDuration::from_days(1),
            background_time: SimDuration::from_days(2),
            foreground_time: SimDuration::from_days(2),
            ..CampaignReport::default()
        };
        let e = m.extrapolate(10_000.0);
        assert!((e.read_only_months - 10.0 / 30.44).abs() < 1e-9);
        assert!((e.with_write_months - 2.0 * e.read_only_months).abs() < 1e-9);
        assert!((e.realistic_months - 4.0 * e.read_only_months).abs() < 1e-9);
    }
}
