//! Simulated Quantum Key Distribution and the OTP channel it feeds.
//!
//! Real QKD establishes information-theoretically secret key material over
//! a quantum link, with eavesdropping physically detectable. The paper
//! treats QKD as an ITS key *source* with two practical drawbacks —
//! limited key rate and specialized infrastructure cost — so that is what
//! the simulation models: a [`QkdLink`] delivers pad bytes at
//! `key_rate_bps`, flags eavesdropping attempts, and tracks cost; an
//! [`OtpChannel`] then consumes the pad for both encryption (XOR) and
//! authentication (a one-time Poly1305 key per record — Wegman–Carter
//! style, information-theoretically unforgeable).

use aeon_crypto::poly1305::poly1305;
use aeon_crypto::CryptoRng;

/// A simulated QKD link between two sites.
#[derive(Debug)]
pub struct QkdLink {
    key_rate_bps: f64,
    install_cost_usd: f64,
    operating_cost_usd_per_year: f64,
    eavesdrop_detected: bool,
    delivered_bytes: u64,
    elapsed_seconds: f64,
}

impl QkdLink {
    /// Creates a link with the given secret-key rate (bits/second) and
    /// cost model.
    pub fn new(key_rate_bps: f64, install_cost_usd: f64, operating_cost_usd_per_year: f64) -> Self {
        QkdLink {
            key_rate_bps,
            install_cost_usd,
            operating_cost_usd_per_year,
            eavesdrop_detected: false,
            delivered_bytes: 0,
            elapsed_seconds: 0.0,
        }
    }

    /// A metro-scale reference link: 1 Mbit/s secret-key rate (optimistic
    /// near-term), $100k install, $20k/year operation.
    pub fn metro_reference() -> Self {
        Self::new(1.0e6, 100_000.0, 20_000.0)
    }

    /// Generates `len` bytes of shared pad, advancing the simulated clock
    /// by the time the link needs at its key rate. Returns identical pads
    /// for both endpoints.
    pub fn generate_pad<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
        len: usize,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut pad = vec![0u8; len];
        rng.fill_bytes(&mut pad);
        self.delivered_bytes += len as u64;
        self.elapsed_seconds += (len as f64 * 8.0) / self.key_rate_bps;
        (pad.clone(), pad)
    }

    /// Simulates an eavesdropping attempt: QKD physics guarantees
    /// detection, so the link flags it and the endpoints discard the
    /// affected material (we model detection as certain).
    pub fn simulate_eavesdrop(&mut self) {
        self.eavesdrop_detected = true;
    }

    /// Whether an eavesdropper has been detected.
    pub fn eavesdrop_detected(&self) -> bool {
        self.eavesdrop_detected
    }

    /// Total pad bytes delivered.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Simulated seconds consumed generating key material.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_seconds
    }

    /// Total cost of ownership over `years`, in USD.
    pub fn cost_usd(&self, years: f64) -> f64 {
        self.install_cost_usd + years * self.operating_cost_usd_per_year
    }

    /// Seconds needed to deliver pad for `bytes` of payload (pad = payload
    /// + 32 bytes MAC key per record of `record_size`).
    pub fn seconds_for_payload(&self, bytes: u64, record_size: usize) -> f64 {
        let records = (bytes as usize).div_ceil(record_size.max(1));
        let pad_bytes = bytes + (records * 32) as u64;
        pad_bytes as f64 * 8.0 / self.key_rate_bps
    }
}

/// Errors from the OTP channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtpChannelError {
    /// Pad exhausted; generate more via QKD.
    PadExhausted,
    /// A record failed its one-time MAC.
    RecordAuth,
}

impl core::fmt::Display for OtpChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OtpChannelError::PadExhausted => write!(f, "one-time pad exhausted"),
            OtpChannelError::RecordAuth => write!(f, "record failed one-time MAC"),
        }
    }
}

impl std::error::Error for OtpChannelError {}

/// An information-theoretically secure record channel over a shared pad.
///
/// Each record consumes `len` pad bytes for the XOR cipher plus 32 pad
/// bytes as a fresh Poly1305 key (one-time polynomial MAC — unforgeable
/// against unbounded adversaries except with probability ~2⁻¹⁰⁶ per
/// record).
#[derive(Debug)]
pub struct OtpChannel {
    pad: Vec<u8>,
    offset: usize,
}

impl OtpChannel {
    /// Wraps a shared pad (one endpoint's copy).
    pub fn new(pad: Vec<u8>) -> Self {
        OtpChannel { pad, offset: 0 }
    }

    /// Remaining pad bytes.
    pub fn remaining(&self) -> usize {
        self.pad.len() - self.offset
    }

    fn take(&mut self, n: usize) -> Result<&[u8], OtpChannelError> {
        if self.remaining() < n {
            return Err(OtpChannelError::PadExhausted);
        }
        let s = &self.pad[self.offset..self.offset + n];
        self.offset += n;
        Ok(s)
    }

    /// Seals a record: `ciphertext || tag`, consuming `len + 32` pad bytes.
    ///
    /// # Errors
    ///
    /// Returns [`OtpChannelError::PadExhausted`] when the pad runs out.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, OtpChannelError> {
        if self.remaining() < plaintext.len() + 32 {
            return Err(OtpChannelError::PadExhausted);
        }
        let ct: Vec<u8> = {
            let pad = self.take(plaintext.len())?;
            plaintext.iter().zip(pad).map(|(p, k)| p ^ k).collect()
        };
        let mac_key: [u8; 32] = self.take(32)?.try_into().expect("32 bytes");
        let tag = poly1305(&mac_key, &ct);
        let mut out = ct;
        out.extend_from_slice(&tag);
        Ok(out)
    }

    /// Opens a record sealed by the peer with the same pad state.
    ///
    /// # Errors
    ///
    /// Returns [`OtpChannelError::RecordAuth`] on tampering or
    /// [`OtpChannelError::PadExhausted`] on pad mismatch.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, OtpChannelError> {
        if record.len() < 16 {
            return Err(OtpChannelError::RecordAuth);
        }
        let (ct, tag) = record.split_at(record.len() - 16);
        if self.remaining() < ct.len() + 32 {
            return Err(OtpChannelError::PadExhausted);
        }
        let pt: Vec<u8> = {
            let pad = self.take(ct.len())?;
            ct.iter().zip(pad).map(|(c, k)| c ^ k).collect()
        };
        let mac_key: [u8; 32] = self.take(32)?.try_into().expect("32 bytes");
        let expect = poly1305(&mac_key, ct);
        if expect != tag {
            return Err(OtpChannelError::RecordAuth);
        }
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    #[test]
    fn qkd_pad_generation_and_timing() {
        let mut rng = ChaChaDrbg::from_u64_seed(1);
        let mut link = QkdLink::new(8000.0, 0.0, 0.0); // 1 KB/s
        let (pa, pb) = link.generate_pad(&mut rng, 500);
        assert_eq!(pa, pb);
        assert_eq!(link.delivered_bytes(), 500);
        assert!((link.elapsed_seconds() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn channel_roundtrip() {
        let mut rng = ChaChaDrbg::from_u64_seed(2);
        let mut link = QkdLink::metro_reference();
        let (pa, pb) = link.generate_pad(&mut rng, 1024);
        let mut tx = OtpChannel::new(pa);
        let mut rx = OtpChannel::new(pb);
        let r1 = tx.seal(b"first share").unwrap();
        let r2 = tx.seal(b"second share").unwrap();
        assert_eq!(rx.open(&r1).unwrap(), b"first share");
        assert_eq!(rx.open(&r2).unwrap(), b"second share");
    }

    #[test]
    fn tamper_detected_by_onetime_mac() {
        let mut rng = ChaChaDrbg::from_u64_seed(3);
        let mut link = QkdLink::metro_reference();
        let (pa, pb) = link.generate_pad(&mut rng, 256);
        let mut tx = OtpChannel::new(pa);
        let mut rx = OtpChannel::new(pb);
        let mut record = tx.seal(b"do not touch").unwrap();
        record[3] ^= 0x40;
        assert_eq!(rx.open(&record).unwrap_err(), OtpChannelError::RecordAuth);
    }

    #[test]
    fn pad_exhaustion() {
        let mut ch = OtpChannel::new(vec![0u8; 40]);
        // 10-byte record needs 42 bytes of pad.
        assert_eq!(
            ch.seal(&[0u8; 10]).unwrap_err(),
            OtpChannelError::PadExhausted
        );
        // 8-byte record fits exactly (8 + 32).
        assert!(ch.seal(&[0u8; 8]).is_ok());
        assert_eq!(ch.remaining(), 0);
    }

    #[test]
    fn eavesdrop_detection_flag() {
        let mut link = QkdLink::metro_reference();
        assert!(!link.eavesdrop_detected());
        link.simulate_eavesdrop();
        assert!(link.eavesdrop_detected());
    }

    #[test]
    fn cost_model() {
        let link = QkdLink::metro_reference();
        assert!((link.cost_usd(0.0) - 100_000.0).abs() < 1e-6);
        assert!((link.cost_usd(10.0) - 300_000.0).abs() < 1e-6);
    }

    #[test]
    fn payload_timing_includes_mac_keys() {
        let link = QkdLink::new(8.0, 0.0, 0.0); // 1 byte/s
                                                // 100 bytes in 10-byte records: 10 records × 32 + 100 = 420 bytes.
        let secs = link.seconds_for_payload(100, 10);
        assert!((secs - 420.0).abs() < 1e-9);
    }
}
