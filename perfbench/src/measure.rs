//! Process-level measurements (CPU time, peak memory), sample quantiles and
//! the result digests the oracles compare.

use std::time::Duration;

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited threads included, in seconds. Linux reports it in
/// `USER_HZ` ticks, which is 100 on every supported architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (the command name) may contain spaces: count from its `)`.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15; `state` (field 3) is index 0.
    let ticks = |index: usize| fields.get(index).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The `q`-quantile of `samples` by the nearest-rank rule
/// `round((n − 1)·q)`, on a sorted copy. Exact sample values, never
/// bucketed, so a reported latency keeps all its digits.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median of `samples`: the middle value, or the mean of the two
/// middle values of an even count.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// An order-sensitive 64-bit digest of a result, one multiply-xorshift
/// round per 64-bit word. Two results digest equal iff they are bitwise
/// equal, barring collisions.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, word: u64) -> &mut Self {
        let h = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
        self
    }

    pub fn index(&mut self, value: usize) -> &mut Self {
        self.word(value as u64)
    }

    pub fn indices(&mut self, values: &[usize]) -> &mut Self {
        self.index(values.len());
        for &value in values {
            self.index(value);
        }
        self
    }

    /// Adds a float by its bits; a non-finite value is an error, since no
    /// output of the library may be NaN or infinite.
    pub fn value(&mut self, value: f64) -> Result<&mut Self, String> {
        if !value.is_finite() {
            return Err(format!("non-finite value {value}"));
        }
        Ok(self.word(value.to_bits()))
    }

    pub fn values(&mut self, values: &[f64]) -> Result<&mut Self, String> {
        self.index(values.len());
        for &value in values {
            self.value(value)?;
        }
        Ok(self)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
