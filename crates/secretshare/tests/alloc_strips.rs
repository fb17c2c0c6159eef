//! Peak live heap bytes of the secret-sharing encoders at benchmark
//! size: a 1 MiB payload split Shamir 3-of-5 (5 MiB of shares) and
//! packed 2+2/6 (3 MiB), and a Shamir reconstruct of it (1 MiB). Each
//! must stay within a fixed strip allowance of its outputs: the
//! encoders walk the payload in strips, so no buffer but the outputs
//! grows with it.
//!
//! One test in its own binary: the counting allocator is global, so it
//! counts only on the thread that switched it on, as
//! `crates/core/tests/alloc_ledger.rs` does.

use aeon_crypto::{ChaChaDrbg, CryptoRng};
use aeon_secretshare::packed::{self, PackedParams};
use aeon_secretshare::shamir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const MIB: usize = 1 << 20;

/// What an encoder may hold beside its outputs, whatever the payload's
/// length: three 16 KiB strips. Shamir holds one coefficient strip and
/// its sub-streams (16.5 KiB); packed sharing its 24 product tables and
/// a strip of symbol columns (33 KiB).
const ALLOWANCE: usize = 3 * 16 * 1024;

/// `(counting, live, peak)` of this thread, relative to the start of
/// the operation being measured.
#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    live: i64,
    peak: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { on: false, live: 0, peak: 0 }) };
}

fn record(grown: usize, freed: usize) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            t.live += grown as i64 - freed as i64;
            t.peak = t.peak.max(t.live);
            cell.set(t);
        }
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `op` with counting on; returns its result and peak live bytes.
fn peak<T>(op: impl FnOnce() -> T) -> (T, usize) {
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            live: 0,
            peak: 0,
        })
    });
    let out = op();
    let t = TALLY.with(|t| {
        t.replace(Tally {
            on: false,
            live: 0,
            peak: 0,
        })
    });
    (out, t.peak.max(0) as usize)
}

#[test]
fn encoders_hold_a_strip_allowance_beside_their_outputs() {
    let mut secret = vec![0u8; MIB];
    ChaChaDrbg::from_u64_seed(1).fill_bytes(&mut secret);
    let mut rng = ChaChaDrbg::from_u64_seed(2);
    let params = PackedParams::new(2, 2, 6).unwrap();
    // Once untimed, so lazily probed kernels are charged to nobody.
    shamir::split(&mut rng, &secret[..64], 3, 5).unwrap();
    packed::split(&mut rng, params, &secret[..64]).unwrap();

    let (shares, shamir_peak) = peak(|| shamir::split(&mut rng, &secret, 3, 5).unwrap());
    let shamir_out: usize = shares.iter().map(|s| s.data.len()).sum();
    let (rec, combine_peak) = peak(|| shamir::reconstruct(&shares[2..], 3).unwrap());
    assert_eq!(rec, secret);
    let (packed, packed_peak) = peak(|| packed::split(&mut rng, params, &secret).unwrap());
    let packed_out: usize = packed.iter().map(|s| s.data.len()).sum();
    let rows = [
        ("shamir split", shamir_peak, shamir_out),
        ("packed split", packed_peak, packed_out),
        ("shamir reconstruct", combine_peak, rec.len()),
    ];
    for (op, peak, out) in rows {
        println!(
            "{op:<20} peak {peak:>9} B = outputs {out:>9} B + {:>6} B",
            peak - out
        );
    }
    assert_eq!((shamir_out, packed_out), (5 * MIB, 3 * MIB));
    for (op, peak, out) in rows {
        assert!(
            peak <= out + ALLOWANCE,
            "{op}: peak {peak} B is more than {ALLOWANCE} B beyond its {out} B of outputs"
        );
    }
}
