//! Seeded input generators. Everything a workload feeds the runtime comes
//! from here, so one `--seed` reproduces one input stream bit for bit.

/// splitmix64: tiny, fast, and good enough to drive a load generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-purpose `lane` of the same seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential inter-arrival gap, in ns, of a Poisson process running
    /// at `rate_per_s`.
    pub fn exp_gap_ns(&mut self, rate_per_s: f64) -> u64 {
        let u = 1.0 - self.next_f64(); // (0, 1]
        (-u.ln() / rate_per_s * 1e9) as u64
    }
}

/// An open-loop arrival schedule: a Poisson process fixed by its seed,
/// indifferent to how the server is doing. Requests are stamped with the
/// time they were *due*, so a stalled server is charged for every request
/// it kept waiting, not only for the one it was serving.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rng: Rng,
    rate_per_s: f64,
    next_due: u64,
}

impl OpenLoop {
    /// Arrivals at `rate_per_s` starting after `start_ns`.
    pub fn new(seed: u64, rate_per_s: f64, start_ns: u64) -> OpenLoop {
        let mut rng = Rng::fork(seed, 2);
        let first = start_ns + rng.exp_gap_ns(rate_per_s);
        OpenLoop {
            rng,
            rate_per_s,
            next_due: first,
        }
    }

    /// When the next request is due.
    pub fn peek(&self) -> u64 {
        self.next_due
    }

    /// The due time of the next request if it is due by `now`; each call
    /// that returns `Some` consumes one arrival.
    pub fn pop_due(&mut self, now: u64) -> Option<u64> {
        (self.next_due <= now).then(|| {
            let due = self.next_due;
            self.next_due += self.rng.exp_gap_ns(self.rate_per_s);
            due
        })
    }
}

/// Zipf(s) over `0..n` by inverse-CDF table lookup: rank 0 is the hottest
/// key.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over bytes — ledger checksums on small records.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over 8-byte words in four interleaved lanes (the multiply chain
/// of the byte-wise form would cost more than moving a 64 KiB body). Tail
/// bytes that do not fill a word go through the byte-wise form.
pub fn fnv_words(bytes: &[u8]) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            *l = (*l ^ u64::from_le_bytes(w.try_into().expect("8-byte word"))).wrapping_mul(P);
        }
    }
    let mut h = fnv1a(chunks.remainder());
    for l in lanes {
        h = (h ^ l).wrapping_mul(P);
    }
    h
}

/// A body of `len` bytes: `[seq u64][checksum u64][seeded filler]`, the
/// checksum covering everything after itself plus the sequence number.
pub fn make_body(len: usize, seq: u64, rng: &mut Rng) -> Vec<u8> {
    assert!(len >= 16);
    let mut v = vec![0u8; len];
    for c in v[16..].chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        c.copy_from_slice(&w[..c.len()]);
    }
    rehash_body(&mut v, seq);
    v
}

/// Stamp `seq` and a checksum computed from scratch — after the filler
/// itself was changed.
pub fn rehash_body(body: &mut [u8], seq: u64) {
    let sum = fnv_words(&body[16..]) ^ seq_mix(seq);
    body[..8].copy_from_slice(&seq.to_le_bytes());
    body[8..16].copy_from_slice(&sum.to_le_bytes());
}

fn seq_mix(seq: u64) -> u64 {
    seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Give a body a new sequence number in O(1): the filler's checksum is
/// recovered from the old stamp, so a sender can reuse one 64 KiB body for
/// every message without re-hashing it.
pub fn restamp_body(body: &mut [u8], seq: u64) {
    let old_seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let old_sum = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let filler = old_sum ^ seq_mix(old_seq);
    body[..8].copy_from_slice(&seq.to_le_bytes());
    body[8..16].copy_from_slice(&(filler ^ seq_mix(seq)).to_le_bytes());
}

/// Verify a body made by [`make_body`]; returns its sequence number.
pub fn check_body(body: &[u8]) -> Option<u64> {
    if body.len() < 16 {
        return None;
    }
    let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    (fnv_words(&body[16..]) ^ seq_mix(seq) == sum).then_some(seq)
}
