//! AES-128/256 block cipher (FIPS 197) and CTR mode.
//!
//! Key expansion and single-block operations are this module's byte-wise
//! code on every host; [`Aes::apply_ctr`] runs through the process-wide
//! [`Kernel`]'s `aes_ctr` slot, whose scalar tier is [`Aes::encrypt_block`]
//! under a counter.

use crate::kernel::Kernel;

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    acc
}

const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply.
    let mut acc = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = gf_mul(acc, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    acc
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let inv = gf_inv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let b = inv;
        sbox[i] =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        i += 1;
    }
    sbox
}

const SBOX: [u8; 256] = build_sbox();
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// An AES key schedule supporting 128- and 256-bit keys.
///
/// Only the forward cipher exists: raw block encryption (for test
/// vectors) and CTR-mode streaming (the mode used by
/// [`Aes256CtrHmac`](crate::aead::Aes256CtrHmac)), which never runs the
/// inverse rounds.
///
/// # Examples
///
/// ```
/// use aeon_crypto::aes::Aes;
///
/// let aes = Aes::new_256(&[0u8; 32]);
/// let mut data = *b"archive";
/// aes.apply_ctr(&[0u8; 16], &mut data);
/// aes.apply_ctr(&[0u8; 16], &mut data);
/// assert_eq!(&data, b"archive");
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

redacted_debug!(Aes);

/// Convenience alias constructor set for AES-256.
pub type Aes256 = Aes;

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Aes {
            round_keys: expand_key(key, 4, 10),
        }
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Aes {
            round_keys: expand_key(key, 8, 14),
        }
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.round_keys.len() - 1
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rounds = self.rounds();
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for r in 1..rounds {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[r]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[rounds]);
        state
    }

    /// Applies CTR-mode keystream to `data` in place, starting from the
    /// given 16-byte initial counter block (big-endian increment of the
    /// low 32 bits).
    ///
    /// Encryption and decryption are the same operation.
    ///
    /// Only the low 32 bits count, and they wrap silently: a call that
    /// runs through more than 2³² counter values reuses keystream. That
    /// is 2³⁶ bytes (64 GiB) when the low word of `iv` starts at zero;
    /// callers must stay within it ([`Aes256CtrHmac`](crate::aead::Aes256CtrHmac)
    /// refuses longer messages).
    pub fn apply_ctr(&self, iv: &[u8; 16], data: &mut [u8]) {
        Kernel::active().aes_ctr(self, iv, data);
    }

    /// The expanded key, one 16-byte round key per entry (11 or 15).
    pub(crate) fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    /// The scalar tier of the kernel's `aes_ctr` slot: one block at a time.
    pub(crate) fn ctr_scalar(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut counter = *iv;
        for chunk in data.chunks_mut(16) {
            let ks = self.encrypt_block(&counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            // Increment low 32 bits big-endian.
            let mut c = u32::from_be_bytes(counter[12..16].try_into().expect("4"));
            c = c.wrapping_add(1);
            counter[12..16].copy_from_slice(&c.to_be_bytes());
        }
    }
}

fn expand_key(key: &[u8], nk: usize, rounds: usize) -> Vec<[u8; 16]> {
    let nw = 4 * (rounds + 1);
    let mut w = vec![[0u8; 4]; nw];
    for (i, word) in w.iter_mut().take(nk).enumerate() {
        word.copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    for i in nk..nw {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = SBOX[*b as usize];
            }
            temp[0] ^= RCON[i / nk - 1];
        } else if nk > 6 && i % nk == 4 {
            for b in temp.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }
        for j in 0..4 {
            w[i][j] = w[i - nk][j] ^ temp[j];
        }
    }
    w.chunks_exact(4)
        .map(|c| {
            let mut rk = [0u8; 16];
            for (i, word) in c.iter().enumerate() {
                rk[4 * i..4 * i + 4].copy_from_slice(word);
            }
            rk
        })
        .collect()
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::to_hex;

    #[test]
    fn sbox_known_entries() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS 197 Appendix B.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes::new_128(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(to_hex(&ct), "3925841d02dc09fbdc118597196a0b32");
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS 197 Appendix C.3.
        let key: [u8; 32] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
            0x1c, 0x1d, 0x1e, 0x1f,
        ];
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes::new_256(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(to_hex(&ct), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn nist_sp800_38a_ctr_aes256() {
        // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt, first block.
        let key: [u8; 32] = [
            0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d,
            0x77, 0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3,
            0x09, 0x14, 0xdf, 0xf4,
        ];
        let iv: [u8; 16] = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let mut data: Vec<u8> = vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        Aes::new_256(&key).apply_ctr(&iv, &mut data);
        assert_eq!(to_hex(&data), "601ec313775789a5b7a7f504bbf3d228");
    }

    #[test]
    fn ctr_roundtrip_partial_blocks() {
        let aes = Aes::new_256(&[0x42u8; 32]);
        let iv = [0x24u8; 16];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let original = vec![0x77u8; len];
            let mut data = original.clone();
            aes.apply_ctr(&iv, &mut data);
            aes.apply_ctr(&iv, &mut data);
            assert_eq!(data, original, "len {len}");
        }
    }

    #[test]
    fn all_blocks_distinct_under_ctr() {
        let aes = Aes::new_128(&[1u8; 16]);
        let iv = [0u8; 16];
        let mut data = vec![0u8; 64];
        aes.apply_ctr(&iv, &mut data);
        let blocks: Vec<&[u8]> = data.chunks(16).collect();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert_ne!(blocks[i], blocks[j]);
            }
        }
    }
}
